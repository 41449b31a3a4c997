"""Single command-line entry point wiring every module.

Subcommands: ``db build|inspect``, ``ontology resolve|optimize``,
``recognize``, ``register``, ``plan``, ``bench run``, ``export``. All JSON
output is key-sorted and versioned with ``schema_version``; with fixtures
and ``--no-timings`` the same inputs produce byte-identical output.

Setting precedence is CLI flag > environment variable > config file
(``--config`` names a JSON file) > default. Every subcommand resolves its
settings once into one ``PipelineConfig``, which checks types and ranges,
so a bad value is a ``spec`` error before any work. Templates register at
the leaf they were built at, so only the two commands that build templates,
``db build`` and ``bench run --synthetic``, take ``--leaf`` (config
``leaf``); ``build_template`` checks it. Chat backends: ``--fixtures``
replays canned responses, ``--endpoint`` talks to a live service.

``recognize`` and ``register`` call the pipeline's stage helpers
(``select_templates``, ``register_all``, ``registration_payload``,
``cluster_cloud``); ``db build`` and ``bench run`` share one ``--synthetic``
build loop.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from .bench import Condition, build_class_templates, run_suite
from .cloud_io import load_cloud, save_ply
from .errors import SceneSpecError, TogError
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
    cluster_cloud,
    export_artifacts,
    register_all,
    registration_payload,
    run_pipeline,
    select_templates,
)
from .recognition import recognize
from .registration import best_registration
from .templates import DEFAULT_LEAF, GripperConfig, build_template, load_db, save_db

DB_ENV = "TOG_DB"
ONTOLOGY_ENV = "TOG_ONTOLOGY"


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SceneSpecError(f"cannot read config file {path}: {exc}") from exc
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

    `settings` holds every source-less setting at its `PipelineConfig`
    default; `leaf` is set only on the template-building subcommands.
    """

    def __init__(self, args):
        config = _load_config_file(args.config)
        values = {
            "db_path": _setting(args.db, DB_ENV, config, "db"),
            "ontology_path": _setting(args.ontology, ONTOLOGY_ENV, config, "ontology"),
            "gripper": _gripper_from_config(config),
            "template_cap": _setting(args.template_cap, None, config, "template_cap"),
            "rng_seed": _setting(args.rng_seed, None, config, "rng_seed"),
        }
        self.settings = PipelineConfig(
            **{name: value for name, value in values.items() if value is not None}
        )
        if "leaf" in args:
            self.leaf = _setting(args.leaf, None, config, "leaf", DEFAULT_LEAF)
        self.fixtures = _setting(args.fixtures, FIXTURES_ENV, config, "fixtures")
        self.endpoint = _setting(args.endpoint, ENDPOINT_ENV, config, "endpoint")
        self.api_key = _setting(args.api_key, API_KEY_ENV, config, "api_key")
        self.model = _setting(args.model, MODEL_ENV, config, "model")

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


def _synthetic_templates(ctx: _Context, specs, graph) -> dict:
    """Templates built by the shape generators from CLASS=COUNT specs."""
    templates = {}
    for spec in specs:
        object_class, count = _parse_pair(spec, "--synthetic")
        if not count.isdecimal():
            raise SceneSpecError(
                f"--synthetic count must be a whole number, got '{spec}'"
            )
        templates.update(
            build_class_templates(
                object_class,
                count=int(count),
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
    templates = {}
    for i, spec in enumerate(args.labeled or ()):
        object_class, path = _parse_pair(spec, "--labeled")
        cloud = load_cloud(path)
        template = build_template(
            cloud,
            object_class,
            leaf=ctx.leaf,
            gripper=settings.gripper,
            graph=graph,
            template_id=Path(path).stem,
            grasp_target=args.grasp_target,
            rng=(settings.rng_seed, i),
        )
        templates[template.id] = template
    templates.update(_synthetic_templates(ctx, args.synthetic or (), graph))
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
    resolved = resolve(
        ctx.settings.graph(),
        Instruction(args.text, target_class_hint=args.hint),
        ctx.chat_client(),
        novel_extension=args.novel,
    )
    payload = {
        "schema_version": 1,
        "object_class": resolved.object_class,
        "part_path": resolved.part_path,
        "mapped_from": resolved.mapped_from,
    }
    if args.show_reasoning:
        payload["raw_reasoning"] = resolved.raw_reasoning
    _emit(payload)
    return 0


def cmd_ontology_optimize(args) -> int:
    ctx = _Context(args)
    if args.prompt_file:
        seed_prompt = Path(args.prompt_file).read_text()
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
    final = optimize_prompt(
        seed_prompt,
        ctx.chat_client(),
        evaluator,
        max_rounds=args.max_rounds,
        transcript=transcript,
    )
    if args.transcript_out:
        Path(args.transcript_out).write_text(
            json.dumps(
                {"schema_version": 1, "rounds": transcript}, sort_keys=True, indent=2
            )
        )
    print(final)
    return 0


def cmd_recognize(args) -> int:
    ctx = _Context(args)
    scene = load_cloud(args.scene)
    db = load_db(ctx.require_db())
    cap = ctx.settings.template_cap
    templates = select_templates(db, args.object_class, args.part, cap)
    result = recognize(scene, list(templates.values()), args.part)
    if args.save_cluster:
        save_ply(cluster_cloud(scene, result), args.save_cluster)
    _emit(
        {
            "schema_version": 1,
            "part_path": result.part_path,
            "seed_index": int(result.seed_index),
            "seed": result.seed.tolist(),
            "members": [int(i) for i in result.members],
            "mean_score": float(result.mean_score),
            "per_template_scores": {
                tid: float(s) for tid, s in result.per_template_scores.items()
            },
            "winning_template_for_cluster": result.winning_template_for_cluster,
        }
    )
    return 0


def cmd_register(args) -> int:
    ctx = _Context(args)
    scene = load_cloud(args.scene)
    db = load_db(ctx.require_db())
    cap = ctx.settings.template_cap
    templates = select_templates(db, args.object_class, args.part, cap)
    if args.template:
        if args.template not in templates:
            raise SceneSpecError(f"template '{args.template}' not in the match set")
        templates = {args.template: templates[args.template]}
    recognition = recognize(scene, list(templates.values()), args.part)
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
        try:
            payload = json.loads(Path(args.conditions).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SceneSpecError(
                f"cannot read conditions file {args.conditions}: {exc}"
            ) from exc
        rows = payload.get("conditions") if isinstance(payload, dict) else payload
        if not isinstance(rows, list) or not rows:
            raise SceneSpecError("conditions file must hold a non-empty list")
        out = []
        for row in rows:
            if not isinstance(row, dict):
                raise SceneSpecError("each condition must be a JSON object")
            if "template_ids" in row:
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
        if args.leaf is not None:
            raise SceneSpecError("--leaf applies to --synthetic templates, not --db")
        templates = load_db(ctx.settings.db_path)
    else:
        templates = _synthetic_templates(
            ctx, args.synthetic or ("mug=3", "bottle=3"), ctx.settings.graph()
        )
    report = run_suite(
        _bench_conditions(args),
        templates,
        trials_per_condition=args.trials,
        master_seed=args.master_seed,
        gripper=ctx.settings.gripper,
    )
    payload = report.to_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2))
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--db", help=f"template database directory (env {DB_ENV})")
    parser.add_argument(
        "--ontology", help=f"ontology JSON file (env {ONTOLOGY_ENV}; default built-in)"
    )
    parser.add_argument("--rng-seed", type=int, help="master random seed")
    parser.add_argument(
        "--template-cap", type=int, help="max templates matched per class"
    )
    parser.add_argument(
        "--fixtures", help=f"chat fixture directory (env {FIXTURES_ENV})"
    )
    parser.add_argument("--endpoint", help=f"chat endpoint URL (env {ENDPOINT_ENV})")
    parser.add_argument("--api-key", help=f"chat API key (env {API_KEY_ENV})")
    parser.add_argument("--model", help=f"chat model name (env {MODEL_ENV})")


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
    _add_common(p_build)
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
    p_build.add_argument("--leaf", type=float, help="template voxel size in meters")
    p_build.add_argument(
        "--grasp-target", type=int, default=50, help="grasps to sample per part"
    )
    p_build.set_defaults(func=cmd_db_build)

    p_inspect = db_sub.add_parser("inspect", help="summarize a database")
    _add_common(p_inspect)
    p_inspect.set_defaults(func=cmd_db_inspect)

    p_onto = sub.add_parser("ontology", help="instruction resolution tools")
    onto_sub = p_onto.add_subparsers(dest="ontology_command", required=True)

    p_resolve = onto_sub.add_parser("resolve", help="instruction -> part path")
    _add_common(p_resolve)
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
    _add_common(p_opt)
    p_opt.add_argument("--prompt", help="seed prompt text")
    p_opt.add_argument("--prompt-file", help="file holding the seed prompt")
    p_opt.add_argument(
        "--feedback",
        action="append",
        help="scripted evaluator feedback, one per round (else interactive)",
    )
    p_opt.add_argument("--max-rounds", type=int, default=8)
    p_opt.add_argument("--transcript-out", help="write the round transcript JSON")
    p_opt.set_defaults(func=cmd_ontology_optimize)

    p_rec = sub.add_parser("recognize", help="locate a part in a scene cloud")
    _add_common(p_rec)
    p_rec.add_argument("--scene", required=True, help="scene cloud (.ply/.json)")
    p_rec.add_argument("--part", required=True, help="part path to find")
    p_rec.add_argument("--class", dest="object_class", help="restrict to one class")
    p_rec.add_argument("--save-cluster", help="write the cluster-labeled PLY here")
    p_rec.set_defaults(func=cmd_recognize)

    p_reg = sub.add_parser("register", help="align templates to a scene part")
    _add_common(p_reg)
    p_reg.add_argument("--scene", required=True)
    p_reg.add_argument("--part", required=True)
    p_reg.add_argument("--class", dest="object_class")
    p_reg.add_argument("--template", help="register only this template id")
    p_reg.set_defaults(func=cmd_register)

    p_plan = sub.add_parser(
        "plan", help="instruction + scene -> ranked grasps with provenance"
    )
    _add_common(p_plan)
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
    _add_common(p_run)
    p_run.add_argument("--conditions", help="JSON file of condition objects")
    p_run.add_argument("--trials", type=int, default=10)
    p_run.add_argument("--master-seed", type=int, default=0)
    p_run.add_argument(
        "--synthetic",
        action="append",
        metavar="CLASS=COUNT",
        help="build synthetic templates instead of loading --db",
    )
    p_run.add_argument("--leaf", type=float, help="template voxel size in meters")
    p_run.add_argument("--out", help="also write the report JSON here")
    p_run.set_defaults(func=cmd_bench_run)

    p_export = sub.add_parser("export", help="write PLY snapshots of a run")
    _add_common(p_export)
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
        payload = {
            "error": {
                "code": exc.code,
                "stage": exc.stage,
                "message": str(exc),
            }
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive: unexpected bugs
        traceback.print_exc()
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
