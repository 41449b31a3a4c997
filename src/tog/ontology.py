"""Instruction-to-part resolution over an object-part ontology.

An offline graph stores each object class as a tree of named parts. A chat
client (live HTTP endpoint or deterministic fixture replayer) answers a
structured prompt whose final ``Conclusion:`` line names the part to grasp;
the conclusion is matched back onto the tree, never trusted verbatim. An
optional prompt extension maps object classes missing from the graph onto
their closest known class, reusing that class's parts and templates.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.client import HTTPException
from pathlib import Path

from .cloud_io import parse_json, read_json, read_text
from .errors import (
    ChatServiceError,
    ConclusionParseError,
    FixtureMissingError,
    OptimizationIncompleteError,
    SchemaError,
    UnresolvedPartError,
)

log = logging.getLogger(__name__)

ENDPOINT_ENV = "TOG_CHAT_ENDPOINT"
API_KEY_ENV = "TOG_CHAT_API_KEY"
MODEL_ENV = "TOG_CHAT_MODEL"
FIXTURES_ENV = "TOG_CHAT_FIXTURES"
_CHAT_STAGE = "resolve.chat"

TASK_CONSTRAINTS = (
    "The robot should grasp parts that are either difficult to manipulate or "
    "potentially dangerous, while the human should grasp the safer, "
    "easier-to-handle parts.",
    "The robot and human should each grasp a different part of the object to "
    "ensure enough operating space.",
)

NOVEL_CLAUSE = (
    "If the target object is not listed in the ontology, find its closest "
    "object in the ontology and use its part information."
)


def _validate_tree(node, trail: str) -> None:
    if not isinstance(node, dict):
        raise SchemaError(f"part node at '{trail}' must be an object, got {type(node).__name__}")
    for name, child in node.items():
        if not isinstance(name, str) or not name or "." in name:
            raise SchemaError(f"invalid part name {name!r} under '{trail}'")
        _validate_tree(child, f"{trail}.{name}" if trail else name)


@dataclass(frozen=True)
class OntologyGraph:
    """Object classes, each a tree of part names (children nested as dicts)."""

    classes: dict

    def __post_init__(self):
        if not isinstance(self.classes, dict) or not self.classes:
            raise SchemaError("ontology must define at least one class")
        for cls, tree in self.classes.items():
            if not isinstance(cls, str) or not cls:
                raise SchemaError(f"invalid class name {cls!r}")
            _validate_tree(tree, cls)
            if not tree:
                raise SchemaError(f"class '{cls}' has no parts")

    @classmethod
    def load(cls, path) -> "OntologyGraph":
        return cls(read_json(path, SchemaError))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.classes, indent=2, sort_keys=True) + "\n")

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def part_paths(self, object_class: str) -> list[str]:
        """All dot-separated part paths of a class, depth first."""
        if object_class not in self.classes:
            raise UnresolvedPartError(f"class '{object_class}' not in ontology")
        paths: list[str] = []

        def walk(node, prefix):
            for name, child in node.items():
                path = f"{prefix}.{name}" if prefix else name
                paths.append(path)
                walk(child, path)

        walk(self.classes[object_class], "")
        return paths


def default_graph() -> OntologyGraph:
    """The built-in graph covering the synthetic benchmark objects."""
    return OntologyGraph(
        {
            "mug": {"handle": {}, "body": {"inside": {}, "outside": {}}},
            "bottle": {"body": {}, "cap": {}},
            "scissor": {"handle": {}, "blade": {}},
            "slab": {"face": {}},
        }
    )


@dataclass(frozen=True)
class Instruction:
    """A natural-language task request, optionally pre-tagged with its class."""

    text: str
    target_class_hint: str | None = None

    def __post_init__(self):
        if not self.text or not self.text.strip():
            raise ValueError("instruction text must be non-empty")


@dataclass(frozen=True)
class ResolvedPart:
    object_class: str
    part_path: str
    mapped_from: str | None
    raw_reasoning: str


class ChatClient:
    """Interface: one prompt in, one completion out."""

    def complete(self, prompt: str) -> str:
        raise NotImplementedError


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class FixtureChatClient(ChatClient):
    """Replays canned responses from ``<sha256(prompt)>.txt`` files.

    Referentially transparent: the same prompt always yields the same
    response, which makes resolution tests reproducible.
    """

    def __init__(self, directory):
        self.directory = Path(directory)

    def complete(self, prompt: str) -> str:
        path = self.directory / f"{prompt_key(prompt)}.txt"
        if not path.exists():
            raise FixtureMissingError(
                f"no fixture for prompt hash {prompt_key(prompt)} in {self.directory}"
            )
        return read_text(path, SchemaError)

    def record(self, prompt: str, response: str) -> Path:
        """Store a response so later completions of ``prompt`` replay it."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{prompt_key(prompt)}.txt"
        path.write_text(response, encoding="utf-8")
        return path


class HttpChatClient(ChatClient):
    """POSTs ``{"model": ..., "messages": [{role, content}]}`` to an endpoint.

    Expects a JSON reply with the assistant text at
    ``choices[0].message.content``. Endpoint, key, and model default to the
    TOG_CHAT_ENDPOINT / TOG_CHAT_API_KEY / TOG_CHAT_MODEL environment
    variables. An unreachable endpoint, an HTTP error status or a timeout
    raises `ChatServiceError`; an invalid endpoint URL, a body that is not
    JSON or a reply of another shape raises `SchemaError`. Both carry the
    stage ``resolve.chat``.
    """

    def __init__(self, endpoint=None, api_key=None, model=None, timeout=60.0):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        self.api_key = api_key or os.environ.get(API_KEY_ENV)
        self.model = model or os.environ.get(MODEL_ENV, "gpt-4o")
        self.timeout = timeout
        if not self.endpoint:
            raise SchemaError(f"chat endpoint not configured (set {ENDPOINT_ENV})")

    def complete(self, prompt: str) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {"model": self.model, "messages": [{"role": "user", "content": prompt}]}
        try:
            request = urllib.request.Request(
                self.endpoint,
                data=json.dumps(payload).encode("utf-8"),
                headers=headers,
                method="POST",
            )
        except ValueError as exc:  # not an absolute http(s) URL
            raise SchemaError(f"invalid chat endpoint: {exc}", stage=_CHAT_STAGE) from exc
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            raise ChatServiceError(
                f"chat endpoint answered HTTP {exc.code} {exc.reason}", stage=_CHAT_STAGE
            ) from exc
        except urllib.error.URLError as exc:
            raise ChatServiceError(
                f"cannot reach chat endpoint {self.endpoint}: {exc.reason}", stage=_CHAT_STAGE
            ) from exc
        except (OSError, HTTPException) as exc:  # timeouts and broken connections
            raise ChatServiceError(
                f"chat request to {self.endpoint} failed: {exc!r}", stage=_CHAT_STAGE
            ) from exc
        body = parse_json(
            raw,
            lambda message: SchemaError(message, stage=_CHAT_STAGE),
            f"chat reply {raw[:200]!r}",
        )
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise SchemaError(
                f"unexpected chat response shape: {body!r}", stage=_CHAT_STAGE
            )
        return content


def _title_path(path: str) -> str:
    return " → ".join(seg.capitalize() for seg in path.split("."))


def serialize_graph(graph: OntologyGraph) -> str:
    """One line per class: ``Mug → Handle, Mug → Body → Inside, ...``"""
    lines = []
    for cls in graph.classes:
        entries = [
            f"{cls.capitalize()} → {_title_path(p)}" for p in graph.part_paths(cls)
        ]
        lines.append(", ".join(entries))
    return "\n".join(lines)


def render_prompt(
    graph: OntologyGraph, instruction: Instruction, novel_extension: bool = False
) -> str:
    """Build the full resolution prompt: ontology, constraints, template."""
    parts = [
        "Given the following ontology:",
        serialize_graph(graph),
        "A robot is given the following command:",
        f'"{instruction.text}"',
        "Constraints:",
        f"1. {TASK_CONSTRAINTS[0]}",
        f"2. {TASK_CONSTRAINTS[1]}",
    ]
    if novel_extension:
        parts.append(NOVEL_CLAUSE)
        parts.append(
            'When you use a closest object, state the mapping on its own line as '
            '"So, we map: <object> ≈ <closest object in ontology>".'
        )
    parts += [
        "Question: Which part of the object should the robot grasp?",
        "Answer step by step using the following template:",
        "The given command is ...",
        "Step 1: Identify the type of task ...",
    ]
    if novel_extension:
        parts.append("Step 2: Find the closest object in the ontology ...")
        parts.append("Step 3: Apply task constraints ...")
    else:
        parts.append("Step 2: Apply task constraints ...")
    parts += [
        "Analyzing the object parts ...",
        "Best choice for the robot ...",
        "Conclusion: The robot should grasp ...",
    ]
    return "\n".join(parts)


_CONCLUSION_RE = re.compile(r"^\W*conclusion\b[:\s]*(.+)$", re.IGNORECASE)
_MAP_RE = re.compile(
    r"\bmap\s*:?\s*(?:the\s+)?([A-Za-z][A-Za-z \t-]*?)\s*(?:≈|~|=)+\s*"
    r"(?:the\s+)?([A-Za-z][A-Za-z-]*)",
    re.IGNORECASE,
)


def extract_conclusion(response: str) -> str:
    """Text of the last Conclusion line of a response."""
    found = None
    for line in response.splitlines():
        m = _CONCLUSION_RE.match(line.replace("*", "").strip())
        if m:
            found = m.group(1).strip()
    if found is None:
        raise ConclusionParseError("response has no Conclusion line")
    return found


def _path_matches(text_lower: str, path: str) -> bool:
    pos = 0
    for comp in path.split("."):
        m = re.compile(rf"\b{re.escape(comp.lower())}\b").search(text_lower, pos)
        if not m:
            return False
        pos = m.end()
    return True


def match_part_path(conclusion: str, paths: list[str]) -> str:
    """The unique maximal part path whose components appear in order.

    Ancestors of a matching path are absorbed by it; two unrelated matches
    mean the conclusion names several parts and cannot be resolved.
    """
    text = conclusion.lower()
    matches = [p for p in paths if _path_matches(text, p)]
    if not matches:
        raise UnresolvedPartError(
            f"conclusion {conclusion!r} names no part of the class"
        )
    maximal = [
        p for p in matches if not any(q != p and q.startswith(p + ".") for q in matches)
    ]
    if len(maximal) > 1:
        raise UnresolvedPartError(
            f"conclusion {conclusion!r} names multiple parts: {sorted(maximal)}"
        )
    return maximal[0]


def _mentioned_class(graph: OntologyGraph, text: str) -> str | None:
    text_lower = text.lower()
    hits = []
    for cls in graph.classes:
        m = re.compile(rf"\b{re.escape(cls.lower())}s?\b").search(text_lower)
        if m:
            hits.append((m.start(), cls))
    if not hits:
        return None
    hits.sort()
    return hits[0][1]


def _parse_mapping(graph: OntologyGraph, response: str):
    m = _MAP_RE.search(response)
    if not m:
        return None
    novel = m.group(1).strip().lower()
    known = m.group(2).strip().lower()
    if not graph.has_class(known):
        raise UnresolvedPartError(
            f"response maps '{novel}' to unknown class '{known}'"
        )
    return novel, known


def resolve(
    graph: OntologyGraph,
    instruction: Instruction,
    client: ChatClient,
    novel_extension: bool = False,
) -> ResolvedPart:
    """Ask the client which part to grasp and pin the answer to the graph.

    The object class comes from the hint or from a class name mentioned in
    the instruction; with the novel extension, an unknown class is accepted
    when the response states a mapping onto a known one.
    """
    mapped_from = None
    object_class = instruction.target_class_hint or _mentioned_class(
        graph, instruction.text
    )
    if object_class is not None and not graph.has_class(object_class):
        mapped_from, object_class = object_class, None
    if object_class is None and not novel_extension:
        raise UnresolvedPartError(
            "instruction names no ontology class (novel extension disabled)"
        )

    prompt = render_prompt(graph, instruction, novel_extension)
    response = client.complete(prompt)
    conclusion = extract_conclusion(response)

    if object_class is None:
        mapping = _parse_mapping(graph, response)
        if mapping is None:
            raise UnresolvedPartError(
                "novel object, but the response states no ontology mapping"
            )
        mapped_from = mapped_from or mapping[0]
        object_class = mapping[1]

    part_path = match_part_path(conclusion, graph.part_paths(object_class))
    return ResolvedPart(
        object_class=object_class,
        part_path=part_path,
        mapped_from=mapped_from,
        raw_reasoning=response,
    )


def make_scripted_evaluator(feedback_sequence):
    """Evaluator that replays a fixed feedback script, one entry per round."""
    remaining = list(feedback_sequence)

    def evaluate(prompt: str, answer: str) -> str:
        if not remaining:
            return "accept"
        return remaining.pop(0)

    return evaluate


def make_terminal_evaluator(input_fn=input, print_fn=print):
    """Evaluator that shows each answer and reads feedback from the terminal."""

    def evaluate(prompt: str, answer: str) -> str:
        print_fn("--- current prompt ---")
        print_fn(prompt)
        print_fn("--- model answer ---")
        print_fn(answer)
        return input_fn('feedback ("accept" to finish): ')

    return evaluate


_REVISED_RE = re.compile(r"revised\s+prompt\s*:?", re.IGNORECASE)


def _extract_revised_prompt(reply: str) -> str | None:
    m = _REVISED_RE.search(reply)
    if not m:
        return None
    revised = reply[m.end() :].strip()
    revised = revised.strip('"“”').strip()
    return revised or None


def optimize_prompt(
    seed_prompt: str,
    client: ChatClient,
    evaluator,
    max_rounds: int = 8,
    transcript: list | None = None,
) -> str:
    """Iteratively refine a prompt until the evaluator accepts the answer.

    Each round: the client answers the current prompt, the evaluator
    returns "accept" or a critique, and on critique the client is asked for
    a revised prompt (taken from its reply's "Revised Prompt:" marker).
    """
    if transcript is None:
        transcript = []
    current = seed_prompt
    for round_no in range(1, max_rounds + 1):
        answer = client.complete(current)
        feedback = evaluator(current, answer)
        entry = {
            "round": round_no,
            "prompt": current,
            "answer": answer,
            "feedback": feedback,
        }
        transcript.append(entry)
        log.info("prompt optimization round %d: %s", round_no, feedback)
        if feedback.strip().lower() == "accept":
            return current
        improver_prompt = "\n".join(
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
        reply = client.complete(improver_prompt)
        entry["improver_reply"] = reply
        revised = _extract_revised_prompt(reply)
        if revised is None:
            raise OptimizationIncompleteError(
                f"round {round_no}: improver reply lacks a Revised Prompt marker",
                transcript=transcript,
            )
        current = revised
    raise OptimizationIncompleteError(
        f"no acceptance within {max_rounds} rounds", transcript=transcript
    )
