import http.client
import io
import json
import urllib.error

import pytest

from tog.errors import (
    ChatServiceError,
    ConclusionParseError,
    FixtureMissingError,
    OptimizationIncompleteError,
    SchemaError,
    UnresolvedPartError,
)
from tog.ontology import (
    API_KEY_ENV,
    ENDPOINT_ENV,
    MODEL_ENV,
    ChatClient,
    FixtureChatClient,
    HttpChatClient,
    Instruction,
    OntologyGraph,
    default_graph,
    extract_conclusion,
    match_part_path,
    optimize_prompt,
    make_scripted_evaluator,
    prompt_key,
    render_prompt,
    resolve,
    serialize_graph,
)


class SequenceChatClient(ChatClient):
    """Returns scripted responses in order."""

    def __init__(self, responses):
        self._responses = list(responses)
        self._cursor = 0

    def complete(self, prompt: str) -> str:
        if self._cursor >= len(self._responses):
            raise FixtureMissingError("scripted responses exhausted")
        out = self._responses[self._cursor]
        self._cursor += 1
        return out


def canned_response(conclusion_part, mapping_line=None):
    lines = [
        "The given command is a two-agent handover task.",
        "Step 1: Identify the type of task and who receives the object.",
    ]
    if mapping_line:
        lines.append("Step 2: Find the closest object in the ontology.")
        lines.append(mapping_line)
        lines.append("Step 3: Apply task constraints 1 and 2.")
    else:
        lines.append("Step 2: Apply task constraints 1 and 2.")
    lines += [
        "Analyzing the object parts for safety and operating space.",
        "Best choice for the robot follows from the constraints.",
        f"Conclusion: The Robot Should Grasp the {conclusion_part}.",
    ]
    return "\n".join(lines)


STANDARD_CASES = [
    ("Pour the water out of the mug.", "mug", "handle", "Handle"),
    ("Hold the coffee-filled mug steady.", "mug", "body.outside", "Body (Outside)"),
    ("Shake the bottle before I drink it.", "bottle", "body", "Body"),
    ("Open the bottle for me.", "bottle", "cap", "Cap"),
    ("Cut the paper with the scissors.", "scissor", "handle", "Handle"),
    ("Hand the scissors to me.", "scissor", "blade", "Blade"),
]


@pytest.fixture
def graph():
    return default_graph()


@pytest.fixture
def fixture_client(tmp_path, graph):
    client = FixtureChatClient(tmp_path / "chat")
    for text, _cls, _path, conclusion in STANDARD_CASES:
        prompt = render_prompt(graph, Instruction(text))
        client.record(prompt, canned_response(conclusion))
    bowl_prompt = render_prompt(
        graph, Instruction("Empty the bowl into the sink."), novel_extension=True
    )
    client.record(
        bowl_prompt,
        canned_response(
            "Body (Outside)", mapping_line="So, we map: Bowl ≈ Mug (without handle)"
        ),
    )
    return client


class TestGraph:
    def test_part_paths_depth_first(self, graph):
        assert graph.part_paths("mug") == [
            "handle",
            "body",
            "body.inside",
            "body.outside",
        ]

    def test_save_load_round_trip(self, graph, tmp_path):
        path = tmp_path / "ontology.json"
        graph.save(path)
        again = OntologyGraph.load(path)
        assert again.classes == graph.classes

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            OntologyGraph({})

    def test_rejects_class_without_parts(self):
        with pytest.raises(SchemaError):
            OntologyGraph({"mug": {}})

    def test_rejects_dotted_part_name(self):
        with pytest.raises(SchemaError):
            OntologyGraph({"mug": {"body.inside": {}}})

    def test_rejects_non_dict_node(self):
        with pytest.raises(SchemaError):
            OntologyGraph({"mug": {"handle": ["x"]}})

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            OntologyGraph.load(path)

    def test_unknown_class_part_paths(self, graph):
        with pytest.raises(UnresolvedPartError):
            graph.part_paths("bowl")


class TestPrompt:
    def test_contains_instruction_and_constraints(self, graph):
        prompt = render_prompt(graph, Instruction("Open the bottle for me."))
        assert '"Open the bottle for me."' in prompt
        assert "difficult to manipulate or potentially dangerous" in prompt
        assert "each grasp a different part of the object" in prompt
        assert "Conclusion: The robot should grasp ..." in prompt

    def test_serializes_every_part_path(self, graph):
        text = serialize_graph(graph)
        assert "Mug → Handle" in text
        assert "Mug → Body → Outside" in text
        assert "Scissor → Blade" in text

    def test_novel_clause_only_when_enabled(self, graph):
        base = render_prompt(graph, Instruction("x"))
        novel = render_prompt(graph, Instruction("x"), novel_extension=True)
        assert "not listed in the ontology" not in base
        assert "not listed in the ontology" in novel
        assert "closest object" in novel

    def test_deterministic(self, graph):
        a = render_prompt(graph, Instruction("Hand the scissors to me."))
        b = render_prompt(graph, Instruction("Hand the scissors to me."))
        assert a == b and prompt_key(a) == prompt_key(b)

    def test_rejects_empty_instruction(self):
        with pytest.raises(ValueError):
            Instruction("   ")


class TestConclusionParsing:
    def test_extracts_last_conclusion(self):
        text = "Conclusion: draft.\nmore\nConclusion: The robot should grasp the cap."
        assert extract_conclusion(text) == "The robot should grasp the cap."

    def test_markdown_bold_tolerated(self):
        assert "Handle" in extract_conclusion("**Conclusion:** the Handle.")

    def test_missing_conclusion(self):
        with pytest.raises(ConclusionParseError):
            extract_conclusion("no definite answer here")

    def test_longest_path_wins(self, graph):
        paths = graph.part_paths("mug")
        assert match_part_path("grasp the Body (Outside)", paths) == "body.outside"
        assert match_part_path("grasp the body", paths) == "body"

    def test_word_boundaries(self, graph):
        paths = graph.part_paths("mug")
        # "mishandled" must not count as naming the handle
        with pytest.raises(UnresolvedPartError):
            match_part_path("the object was mishandled", paths)

    def test_multiple_parts_rejected(self, graph):
        with pytest.raises(UnresolvedPartError) as err:
            match_part_path(
                "grasp the handle and the blade", graph.part_paths("scissor")
            )
        assert "multiple" in str(err.value)

    def test_no_part_rejected(self, graph):
        with pytest.raises(UnresolvedPartError):
            match_part_path("grasp the spout", graph.part_paths("mug"))


class TestResolve:
    @pytest.mark.parametrize("text,cls,path,conclusion", STANDARD_CASES)
    def test_standard_instructions(
        self, graph, fixture_client, text, cls, path, conclusion
    ):
        result = resolve(graph, Instruction(text), fixture_client)
        assert result.object_class == cls
        assert result.part_path == path
        assert result.mapped_from is None
        assert "Conclusion" in result.raw_reasoning

    def test_novel_object_maps_to_known_class(self, graph, fixture_client):
        result = resolve(
            graph,
            Instruction("Empty the bowl into the sink."),
            fixture_client,
            novel_extension=True,
        )
        assert result.object_class == "mug"
        assert result.part_path == "body.outside"
        assert result.mapped_from == "bowl"

    def test_novel_object_rejected_without_extension(self, graph, fixture_client):
        with pytest.raises(UnresolvedPartError):
            resolve(graph, Instruction("Empty the bowl into the sink."), fixture_client)

    def test_hint_overrides_mention(self, graph):
        client = SequenceChatClient([canned_response("Cap")])
        result = resolve(
            graph,
            Instruction("Put it next to the mug.", target_class_hint="bottle"),
            client,
        )
        assert result.object_class == "bottle"
        assert result.part_path == "cap"

    def test_novel_hint_requires_mapping_line(self, graph):
        client = SequenceChatClient([canned_response("Handle")])
        with pytest.raises(UnresolvedPartError):
            resolve(
                graph,
                Instruction("Pick it up.", target_class_hint="bowl"),
                client,
                novel_extension=True,
            )

    def test_mapping_to_unknown_class_rejected(self, graph):
        client = SequenceChatClient(
            [canned_response("Handle", mapping_line="So, we map: Bowl ≈ Pot")]
        )
        with pytest.raises(UnresolvedPartError):
            resolve(
                graph,
                Instruction("Empty the bowl."),
                client,
                novel_extension=True,
            )

    def test_missing_fixture(self, graph, fixture_client):
        with pytest.raises(FixtureMissingError):
            resolve(graph, Instruction("Juggle the mug."), fixture_client)

    def test_plural_class_mention(self, graph, fixture_client):
        result = resolve(
            graph, Instruction("Hand the scissors to me."), fixture_client
        )
        assert result.object_class == "scissor"


def fake_urlopen(monkeypatch, outcome):
    """Make urlopen record its request and return `outcome`, or raise it."""
    seen = {}

    def urlopen(request, timeout=None):
        seen.update(request=request, timeout=timeout)
        if isinstance(outcome, BaseException):
            raise outcome
        return io.BytesIO(outcome)

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    return seen


CHAT_REPLY = json.dumps({"choices": [{"message": {"content": "Conclusion: cap"}}]}).encode()


class TestHttpClient:
    def test_wire_format(self, monkeypatch):
        seen = fake_urlopen(monkeypatch, CHAT_REPLY)
        client = HttpChatClient(
            endpoint="http://chat.test/v1", api_key="k1", model="m1", timeout=7.5
        )
        assert client.complete("hello") == "Conclusion: cap"
        request = seen["request"]
        assert request.full_url == "http://chat.test/v1"
        assert request.get_method() == "POST"
        assert json.loads(request.data) == {
            "model": "m1",
            "messages": [{"role": "user", "content": "hello"}],
        }
        assert request.get_header("Authorization") == "Bearer k1"
        assert request.get_header("Content-type") == "application/json"
        assert seen["timeout"] == 7.5

    def test_no_api_key_sends_no_authorization(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        seen = fake_urlopen(monkeypatch, CHAT_REPLY)
        HttpChatClient(endpoint="http://chat.test").complete("hello")
        assert not seen["request"].has_header("Authorization")

    def test_env_configuration(self, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV, "http://env.test")
        monkeypatch.setenv(API_KEY_ENV, "sekrit")
        monkeypatch.setenv(MODEL_ENV, "env-model")
        client = HttpChatClient()
        assert client.endpoint == "http://env.test"
        assert client.api_key == "sekrit"
        assert client.model == "env-model"

    def test_missing_endpoint(self, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
        with pytest.raises(SchemaError):
            HttpChatClient()

    @pytest.mark.parametrize(
        "body",
        [
            b'{"unexpected": true}',
            b'{"choices": []}',
            b'{"choices": [{"message": {"content": null}}]}',
            b'["choices"]',
        ],
    )
    def test_bad_response_shape(self, monkeypatch, body):
        fake_urlopen(monkeypatch, body)
        client = HttpChatClient(endpoint="http://chat.test")
        with pytest.raises(SchemaError) as info:
            client.complete("hello")
        assert info.value.stage == "resolve.chat"

    @pytest.mark.parametrize(
        "body", [b"<html>502 Bad Gateway</html>", b"", b"\xff\xfe{", b"[" * 100_000]
    )
    def test_body_not_json(self, monkeypatch, body):
        fake_urlopen(monkeypatch, body)
        with pytest.raises(SchemaError, match="not JSON") as info:
            HttpChatClient(endpoint="http://chat.test").complete("hello")
        assert info.value.stage == "resolve.chat"

    @pytest.mark.parametrize(
        "failure, text",
        [
            (urllib.error.URLError(ConnectionRefusedError(111, "refused")), "cannot reach"),
            (
                urllib.error.HTTPError("http://chat.test", 503, "Unavailable", {}, None),
                "HTTP 503",
            ),
            (TimeoutError("timed out"), "timed out"),
            (http.client.RemoteDisconnected("closed"), "closed"),
        ],
        ids=["url-error", "http-error", "timeout", "disconnected"],
    )
    def test_transport_failures(self, monkeypatch, failure, text):
        fake_urlopen(monkeypatch, failure)
        with pytest.raises(ChatServiceError, match=text) as info:
            HttpChatClient(endpoint="http://chat.test").complete("hello")
        assert info.value.stage == "resolve.chat"
        assert info.value.code == "chat-service"

    def test_invalid_endpoint_url(self):
        with pytest.raises(SchemaError, match="invalid chat endpoint"):
            HttpChatClient(endpoint="chat.test/v1").complete("hello")


class TestOptimizePrompt:
    def test_accept_first_round(self):
        client = SequenceChatClient(["some answer"])
        out = optimize_prompt("seed", client, make_scripted_evaluator(["accept"]))
        assert out == "seed"

    def test_revision_applied_then_accepted(self):
        client = SequenceChatClient(
            [
                "weak answer",
                "Here you go.\nRevised Prompt:\nseed with explicit constraints",
                "strong answer",
            ]
        )
        transcript = []
        out = optimize_prompt(
            "seed",
            client,
            make_scripted_evaluator(["mention the constraints", "accept"]),
            transcript=transcript,
        )
        assert out == "seed with explicit constraints"
        assert [e["round"] for e in transcript] == [1, 2]
        assert transcript[0]["feedback"] == "mention the constraints"
        assert "improver_reply" in transcript[0]
        assert transcript[1]["feedback"] == "accept"

    def test_rounds_exhausted(self):
        client = SequenceChatClient(
            ["a1", "Revised Prompt: p2", "a2", "Revised Prompt: p3", "a3"]
        )
        with pytest.raises(OptimizationIncompleteError) as err:
            optimize_prompt(
                "seed",
                client,
                make_scripted_evaluator(["no", "no", "no"]),
                max_rounds=2,
            )
        assert len(err.value.transcript) == 2

    def test_unparseable_improver_reply(self):
        client = SequenceChatClient(["a1", "I refuse to follow the format"])
        with pytest.raises(OptimizationIncompleteError) as err:
            optimize_prompt("seed", client, make_scripted_evaluator(["no"]))
        assert err.value.transcript[0]["round"] == 1


def test_resolution_is_deterministic(graph, fixture_client):
    text = "Pour the water out of the mug."
    first = resolve(graph, Instruction(text), fixture_client)
    second = resolve(graph, Instruction(text), fixture_client)
    assert first == second
