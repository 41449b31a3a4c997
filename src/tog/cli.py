"""Single command-line entry point wiring every module.

Subcommands: ``db build|inspect``, ``ontology resolve|optimize``,
``recognize``, ``register``, ``plan``, ``bench run``, ``export``. All JSON
output is key-sorted and versioned with ``schema_version``; with fixtures
and ``--no-timings`` the same inputs produce byte-identical output.

Setting precedence is CLI flag > environment variable > config file
(``--config`` names a JSON file) > default. Each subcommand takes
``--config`` and the flags of only the settings it reads:

- ``db build``: ``--ontology --rng-seed --leaf``;
- ``db inspect``: ``--db``;
- ``ontology resolve``: ``--ontology`` and the chat settings (``--fixtures
  --endpoint --api-key --model``);
- ``ontology optimize``: the chat settings;
- ``recognize``: ``--db --template-cap``;
- ``register``: ``--db --template-cap --rng-seed``;
- ``plan`` and ``export``: every one of these but ``--leaf``;
- ``bench run``: ``--db --ontology --rng-seed --leaf``. The last three
  apply to ``--synthetic`` templates, so with a database they are a
  ``spec`` error.

The config file is shared by every subcommand and validated whole: each
one resolves its settings once into one ``PipelineConfig``, which checks
types and ranges, so a bad value is a ``spec`` error before any work, even
for a setting the subcommand does not read. Templates register at the leaf
they were built at, so only the two commands that build templates check
``leaf`` (``templates.check_leaf``). Chat backends: ``--fixtures`` replays
canned responses, ``--endpoint`` talks to a live service.

A failure prints one JSON error (``code``, ``stage``, ``message``) on
stderr and exits 2: an engine error with its own code, a file the command
cannot read or write with code ``io``.

The commands run the pipeline's stages, not copies of them: ``ontology
resolve``, ``recognize`` and ``register`` run their steps under
``pipeline.stage`` with ``run_pipeline``'s stage names (setup, resolve,
recognize, register), so an engine error names its stage as it does in
``plan``. ``recognize`` and ``register`` share one front half (load, select,
recognize) and the pipeline's helpers (``select_templates``,
``register_all``, ``cluster_cloud``) and serializers
(``resolution_payload``, ``recognition_payload``, ``registration_payload``);
``db build`` and ``bench run`` share one ``--synthetic`` build loop.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from .bench import (
    MAX_TEMPLATES_PER_CLASS,
    SHAPES,
    Condition,
    build_class_templates,
    class_template_ids,
    run_suite,
)
from .cloud_io import load_cloud, read_json, read_text, save_ply
from .errors import OptimizationIncompleteError, SceneSpecError, TogError
from .ontology import (
    ENDPOINT_ENV,
    FIXTURES_ENV,
    MODEL_ENV,
    API_KEY_ENV,
    FixtureChatClient,
    HttpChatClient,
    Instruction,
    make_scripted_evaluator,
    make_terminal_evaluator,
    optimize_prompt,
    resolve,
)
from .pipeline import (
    PipelineConfig,
    check_integer_setting,
    check_unique,
    cluster_cloud,
    export_artifacts,
    recognition_payload,
    register_all,
    registration_payload,
    resolution_payload,
    run_pipeline,
    select_templates,
    stage,
)
from .recognition import recognize
from .registration import best_registration
from .templates import DEFAULT_LEAF, GripperConfig, build_template, check_leaf
from .templates import load_db, save_db

DB_ENV = "TOG_DB"
ONTOLOGY_ENV = "TOG_ONTOLOGY"


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _write_json(path, payload) -> None:
    """`payload` as `_emit` prints it, written to `path` if one is given."""
    if path:
        Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2))


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    data = read_json(path, SceneSpecError)
    if not isinstance(data, dict):
        raise SceneSpecError(f"config file {path} must hold a JSON object")
    return data


def _setting(cli_value, env_name, config, key, default=None):
    """CLI flag > environment variable > config file > default."""
    if cli_value is not None:
        return cli_value
    if env_name and os.environ.get(env_name):
        return os.environ[env_name]
    if key in config:
        return config[key]
    return default


def _gripper_from_config(config: dict) -> GripperConfig | None:
    payload = config.get("gripper")
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise SceneSpecError("config 'gripper' must be an object of numbers")
    try:
        return GripperConfig(**payload)
    except (TypeError, ValueError) as exc:
        raise SceneSpecError(f"bad gripper config: {exc}") from exc


class _Context:
    """Settings shared by every subcommand, resolved once per invocation.

    A flag the subcommand does not take reads as None, so its setting comes
    from the environment, the config file or the default. `settings` holds
    every source-less setting at its `PipelineConfig` default; `leaf` is set
    only on the subcommands that take `--leaf`, the template builders.
    """

    def __init__(self, args):
        config = _load_config_file(args.config)
        flags = vars(args)

        def setting(name, env_name=None, default=None):
            return _setting(flags.get(name), env_name, config, name, default)

        values = {
            "db_path": setting("db", DB_ENV),
            "ontology_path": setting("ontology", ONTOLOGY_ENV),
            "gripper": _gripper_from_config(config),
            "template_cap": setting("template_cap"),
            "rng_seed": setting("rng_seed"),
        }
        self.settings = PipelineConfig(
            **{name: value for name, value in values.items() if value is not None}
        )
        if "leaf" in args.settings:
            self.leaf = check_leaf(setting("leaf", default=DEFAULT_LEAF))
        self.fixtures = setting("fixtures", FIXTURES_ENV)
        self.endpoint = setting("endpoint", ENDPOINT_ENV)
        self.api_key = setting("api_key", API_KEY_ENV)
        self.model = setting("model", MODEL_ENV)

    def chat_client(self):
        if self.fixtures:
            return FixtureChatClient(self.fixtures)
        return HttpChatClient(
            endpoint=self.endpoint, api_key=self.api_key, model=self.model
        )

    def require_db(self) -> str:
        if not self.settings.db_path:
            raise SceneSpecError(
                "no template database given (use --db, TOG_DB, or config 'db')"
            )
        return self.settings.db_path


def _parse_pair(text: str, what: str) -> tuple[str, str]:
    left, sep, right = text.partition("=")
    if not (sep and left and right):
        raise SceneSpecError(f"{what} must look like name=value, got '{text}'")
    return left, right


def _synthetic_specs(specs) -> list[tuple[str, int]]:
    """(class, count) of each CLASS=COUNT spec.

    Each class has a shape generator, and each count is at least 1 and at
    most `MAX_TEMPLATES_PER_CLASS`.
    """
    pairs = []
    for spec in specs:
        object_class, count = _parse_pair(spec, "--synthetic")
        if object_class not in SHAPES:
            raise SceneSpecError(
                f"no generator for object class '{object_class}' in '{spec}'"
                f" (available: {sorted(SHAPES)})"
            )
        if not count.isdecimal() or int(count) < 1:
            raise SceneSpecError(
                f"--synthetic count must be a whole number of at least 1, got '{spec}'"
            )
        if int(count) > MAX_TEMPLATES_PER_CLASS:
            raise SceneSpecError(
                f"at most {MAX_TEMPLATES_PER_CLASS} templates per class, got '{spec}'"
            )
        pairs.append((object_class, int(count)))
    return pairs


def _labeled_template_id(path) -> str:
    """The id of the template built from a labeled cloud file: the file's stem."""
    return Path(path).stem


def _check_template_ids(labeled, synthetic) -> None:
    """SceneSpecError naming each template id that two inputs share."""
    ids = [_labeled_template_id(path) for _, path in labeled]
    ids += [tid for cls, count in synthetic for tid in class_template_ids(cls, count)]
    check_unique("template ids", ids)


def _synthetic_templates(ctx: _Context, pairs, graph) -> dict:
    """Templates built by the shape generators from `_synthetic_specs` pairs."""
    templates = {}
    for object_class, count in pairs:
        templates.update(
            build_class_templates(
                object_class,
                count=count,
                leaf=ctx.leaf,
                gripper=ctx.settings.gripper,
                rng_seed=ctx.settings.rng_seed,
                graph=graph,
            )
        )
    return templates


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_db_build(args) -> int:
    ctx = _Context(args)
    if not args.labeled and not args.synthetic:
        raise SceneSpecError("db build needs --labeled and/or --synthetic inputs")
    settings = ctx.settings
    graph = settings.graph()
    labeled = [_parse_pair(spec, "--labeled") for spec in args.labeled or ()]
    synthetic = _synthetic_specs(args.synthetic or ())
    _check_template_ids(labeled, synthetic)
    # a bad --out fails before any template is built
    Path(args.out).mkdir(parents=True, exist_ok=True)
    templates = {}
    for i, (object_class, path) in enumerate(labeled):
        cloud = load_cloud(path)
        template = build_template(
            cloud,
            object_class,
            leaf=ctx.leaf,
            gripper=settings.gripper,
            graph=graph,
            template_id=_labeled_template_id(path),
            rng=(settings.rng_seed, i),
        )
        templates[template.id] = template
    templates.update(_synthetic_templates(ctx, synthetic, graph))
    out_dir = save_db(templates.values(), args.out)
    _emit(
        {
            "schema_version": 1,
            "directory": str(out_dir),
            "templates": sorted(templates),
        }
    )
    return 0


def cmd_db_inspect(args) -> int:
    ctx = _Context(args)
    db = load_db(ctx.require_db())
    _emit(
        {
            "schema_version": 1,
            "templates": [
                {
                    "id": t.id,
                    "object_class": t.object_class,
                    "leaf": t.leaf,
                    "points": len(t.full_cloud),
                    "parts": {path: len(cloud) for path, cloud in t.parts.items()},
                    "grasps": {path: len(g) for path, g in t.grasps.items()},
                }
                for t in db.values()
            ],
        }
    )
    return 0


def cmd_ontology_resolve(args) -> int:
    ctx = _Context(args)
    with stage("setup"):
        graph, client = ctx.settings.graph(), ctx.chat_client()
    with stage("resolve"):
        resolved = resolve(
            graph,
            Instruction(args.text, target_class_hint=args.hint),
            client,
            novel_extension=args.novel,
        )
    payload = {"schema_version": 1, **resolution_payload(resolved)}
    if args.show_reasoning:
        payload["raw_reasoning"] = resolved.raw_reasoning
    _emit(payload)
    return 0


def cmd_ontology_optimize(args) -> int:
    ctx = _Context(args)
    check_integer_setting("max_rounds", args.max_rounds, 1)
    if args.prompt_file:
        # code "io", like any other file the command cannot read
        seed_prompt = read_text(args.prompt_file, OSError)
    elif args.prompt:
        seed_prompt = args.prompt
    else:
        raise SceneSpecError("ontology optimize needs --prompt or --prompt-file")
    evaluator = (
        make_scripted_evaluator(args.feedback)
        if args.feedback
        else make_terminal_evaluator()
    )
    transcript: list = []
    try:
        final = optimize_prompt(
            seed_prompt, ctx.chat_client(), evaluator, args.max_rounds, transcript
        )
    except OptimizationIncompleteError as exc:  # a failed run's rounds are worth reading
        _write_json(args.transcript_out, {"schema_version": 1, "rounds": exc.transcript})
        raise
    _write_json(args.transcript_out, {"schema_version": 1, "rounds": transcript})
    print(final)
    return 0


def _recognize_scene(args, ctx: _Context, template: str | None = None):
    """The scene, the matched templates and the recognition of `--part`.

    The front half of `recognize` and `register`, run as the pipeline's
    setup and recognize stages. A `template` id (`register --template`)
    narrows the match set to that one template before recognition.
    """
    with stage("setup"):
        scene = load_cloud(args.scene)
        db = load_db(ctx.require_db())
    with stage("recognize"):
        templates = select_templates(
            db, args.object_class, args.part, ctx.settings.template_cap
        )
        if template:
            if template not in templates:
                raise SceneSpecError(f"template '{template}' not in the match set")
            templates = {template: templates[template]}
        recognition = recognize(scene, list(templates.values()), args.part)
    return scene, templates, recognition


def cmd_recognize(args) -> int:
    scene, _templates, result = _recognize_scene(args, _Context(args))
    if args.save_cluster:
        save_ply(cluster_cloud(scene, result), args.save_cluster)
    _emit(
        {
            **recognition_payload(result),
            "schema_version": 1,
            "part_path": result.part_path,
            "seed": result.seed.tolist(),
            "members": [int(i) for i in result.members],
        }
    )
    return 0


def cmd_register(args) -> int:
    ctx = _Context(args)
    scene, templates, recognition = _recognize_scene(args, ctx, args.template)
    with stage("register"):
        registrations, failures = register_all(
            scene, recognition, templates, ctx.settings.rng_seed
        )
    _emit(
        {
            "schema_version": 1,
            "part_path": args.part,
            "winning_template": best_registration(registrations),
            "failures": failures,
            "registrations": {
                tid: registration_payload(reg) for tid, reg in registrations.items()
            },
        }
    )
    return 0


def _run_pipeline(args, **options):
    """`run_pipeline` on the instruction and scene flags of plan and export."""
    ctx = _Context(args)
    ctx.require_db()
    return run_pipeline(
        ctx.settings,
        args.instruction,
        args.scene,
        ctx.chat_client(),
        novel_extension=args.novel,
        target_class_hint=args.hint,
        **options,
    )


def cmd_plan(args) -> int:
    result = _run_pipeline(args, include_timings=not args.no_timings)
    report = result.report
    if args.select:
        report = dict(report)
        report["grasps"] = report["grasps"][:1]
    if args.export_dir:
        export_artifacts(result, args.export_dir)
    _emit(report)
    return 0


def cmd_export(args) -> int:
    result = _run_pipeline(args, include_timings=False, strict=False)
    written = export_artifacts(result, args.out)
    _emit(
        {
            "schema_version": 1,
            "written": [str(p) for p in written],
            "grasp_count": len(result.candidates),
        }
    )
    return 0


def _bench_conditions(args) -> list[Condition]:
    if args.conditions:
        payload = read_json(args.conditions, SceneSpecError)
        rows = payload.get("conditions") if isinstance(payload, dict) else payload
        if not isinstance(rows, list) or not rows:
            raise SceneSpecError("conditions file must hold a non-empty list")
        out = []
        for row in rows:
            if not isinstance(row, dict):
                raise SceneSpecError("each condition must be a JSON object")
            if isinstance(row.get("template_ids"), list):
                row = {**row, "template_ids": tuple(row["template_ids"])}
            try:
                out.append(Condition(**row))
            except TypeError as exc:
                raise SceneSpecError(f"bad condition {row}: {exc}") from exc
        return out
    return [
        Condition(
            name="mug-handle",
            object_class="mug",
            part_path="handle",
            partial=False,
        ),
        Condition(
            name="bottle-cap",
            object_class="bottle",
            part_path="cap",
            partial=False,
        ),
    ]


def cmd_bench_run(args) -> int:
    ctx = _Context(args)
    if ctx.settings.db_path:
        for name in ("ontology", "rng_seed", "leaf"):
            if getattr(args, name) is not None:
                raise SceneSpecError(
                    f"{_flag(name)} applies to --synthetic templates, not --db"
                )
        pairs = None
    else:
        pairs = _synthetic_specs(args.synthetic or ("mug=3", "bottle=3"))
        _check_template_ids((), pairs)
    conditions = _bench_conditions(args)  # before any template is loaded or built
    if pairs is None:
        templates = load_db(ctx.settings.db_path)
    else:
        templates = _synthetic_templates(ctx, pairs, ctx.settings.graph())
    report = run_suite(
        conditions,
        templates,
        trials_per_condition=args.trials,
        master_seed=args.master_seed,
        gripper=ctx.settings.gripper,
    )
    payload = report.to_dict()
    _write_json(args.out, payload)
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


# argparse options of each settings flag; the config key is the flag's name
_FLAGS = {
    "db": dict(help=f"template database directory (env {DB_ENV})"),
    "ontology": dict(help=f"ontology JSON file (env {ONTOLOGY_ENV}; default built-in)"),
    "rng_seed": dict(type=int, help="master random seed"),
    "template_cap": dict(type=int, help="max templates matched per class"),
    "leaf": dict(type=float, help="template voxel size in meters"),
    "fixtures": dict(help=f"chat fixture directory (env {FIXTURES_ENV})"),
    "endpoint": dict(help=f"chat endpoint URL (env {ENDPOINT_ENV})"),
    "api_key": dict(help=f"chat API key (env {API_KEY_ENV})"),
    "model": dict(help=f"chat model name (env {MODEL_ENV})"),
}
_CHAT = ("fixtures", "endpoint", "api_key", "model")
_PIPELINE = ("db", "ontology", "rng_seed", "template_cap", *_CHAT)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_common(parser: argparse.ArgumentParser, *settings: str) -> None:
    """`--config` plus the flags of the named settings, which `_Context` reads."""
    parser.add_argument("--config", help="JSON config file")
    for name in settings:
        parser.add_argument(_flag(name), **_FLAGS[name])
    parser.set_defaults(settings=settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tog",
        description="Task-oriented grasping engine: build template databases, "
        "resolve instructions to parts, recognize and register parts in "
        "scenes, plan grasps, benchmark, and export viewer snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_db = sub.add_parser("db", help="template database tools")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)

    p_build = db_sub.add_parser("build", help="build templates into a database")
    _add_common(p_build, "ontology", "rng_seed", "leaf")
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.add_argument(
        "--labeled",
        action="append",
        metavar="CLASS=CLOUD",
        help="labeled cloud file to turn into one template (repeatable)",
    )
    p_build.add_argument(
        "--synthetic",
        action="append",
        metavar="CLASS=COUNT",
        help="generate templates from the built-in shape generators",
    )
    p_build.set_defaults(func=cmd_db_build)

    p_inspect = db_sub.add_parser("inspect", help="summarize a database")
    _add_common(p_inspect, "db")
    p_inspect.set_defaults(func=cmd_db_inspect)

    p_onto = sub.add_parser("ontology", help="instruction resolution tools")
    onto_sub = p_onto.add_subparsers(dest="ontology_command", required=True)

    p_resolve = onto_sub.add_parser("resolve", help="instruction -> part path")
    _add_common(p_resolve, "ontology", *_CHAT)
    p_resolve.add_argument("--text", required=True, help="task instruction")
    p_resolve.add_argument("--hint", help="object class hint")
    p_resolve.add_argument(
        "--novel", action="store_true", help="allow novel-object mapping"
    )
    p_resolve.add_argument(
        "--show-reasoning", action="store_true", help="include the raw response"
    )
    p_resolve.set_defaults(func=cmd_ontology_resolve)

    p_opt = onto_sub.add_parser("optimize", help="iterative prompt refinement")
    _add_common(p_opt, *_CHAT)
    p_opt.add_argument("--prompt", help="seed prompt text")
    p_opt.add_argument("--prompt-file", help="file holding the seed prompt")
    p_opt.add_argument(
        "--feedback",
        action="append",
        help="scripted evaluator feedback, one per round (else interactive)",
    )
    p_opt.add_argument("--max-rounds", type=int, default=8)
    p_opt.add_argument(
        "--transcript-out", help="write the round transcript JSON, accepted or not"
    )
    p_opt.set_defaults(func=cmd_ontology_optimize)

    p_rec = sub.add_parser("recognize", help="locate a part in a scene cloud")
    _add_common(p_rec, "db", "template_cap")
    p_rec.add_argument("--scene", required=True, help="scene cloud (.ply/.json)")
    p_rec.add_argument("--part", required=True, help="part path to find")
    p_rec.add_argument("--class", dest="object_class", help="restrict to one class")
    p_rec.add_argument("--save-cluster", help="write the cluster-labeled PLY here")
    p_rec.set_defaults(func=cmd_recognize)

    p_reg = sub.add_parser("register", help="align templates to a scene part")
    _add_common(p_reg, "db", "template_cap", "rng_seed")
    p_reg.add_argument("--scene", required=True)
    p_reg.add_argument("--part", required=True)
    p_reg.add_argument("--class", dest="object_class")
    p_reg.add_argument("--template", help="register only this template id")
    p_reg.set_defaults(func=cmd_register)

    p_plan = sub.add_parser(
        "plan", help="instruction + scene -> ranked grasps with provenance"
    )
    _add_common(p_plan, *_PIPELINE)
    p_plan.add_argument("--instruction", required=True)
    p_plan.add_argument("--scene", required=True)
    p_plan.add_argument("--hint", help="object class hint")
    p_plan.add_argument("--novel", action="store_true")
    p_plan.add_argument(
        "--select", action="store_true", help="report only the top grasp"
    )
    p_plan.add_argument(
        "--no-timings",
        action="store_true",
        help="omit wall-clock timings for byte-stable output",
    )
    p_plan.add_argument("--export-dir", help="also write PLY snapshots here")
    p_plan.set_defaults(func=cmd_plan)

    p_bench = sub.add_parser("bench", help="synthetic benchmark")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_run = bench_sub.add_parser("run", help="run benchmark conditions")
    _add_common(p_run, "db", "ontology", "rng_seed", "leaf")
    p_run.add_argument("--conditions", help="JSON file of condition objects")
    p_run.add_argument("--trials", type=int, default=10)
    p_run.add_argument("--master-seed", type=int, default=0)
    p_run.add_argument(
        "--synthetic",
        action="append",
        metavar="CLASS=COUNT",
        help="build synthetic templates instead of loading --db",
    )
    p_run.add_argument("--out", help="also write the report JSON here")
    p_run.set_defaults(func=cmd_bench_run)

    p_export = sub.add_parser("export", help="write PLY snapshots of a run")
    _add_common(p_export, *_PIPELINE)
    p_export.add_argument("--instruction", required=True)
    p_export.add_argument("--scene", required=True)
    p_export.add_argument("--hint")
    p_export.add_argument("--novel", action="store_true")
    p_export.add_argument("--out", required=True, help="output directory")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TogError as exc:
        error = {"code": exc.code, "stage": exc.stage, "message": str(exc)}
    except OSError as exc:  # a file or directory the command reads or writes
        error = {"code": "io", "stage": None, "message": str(exc)}
    except Exception:  # pragma: no cover - defensive: unexpected bugs
        traceback.print_exc()
        return 1
    print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
