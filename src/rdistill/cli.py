"""Command-line entry points for the dataset pipeline and inference tools.

Exit codes: 0 success, 1 stage failure, 2 validation failure.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys

import click

from . import cropping, dsl, inference, pipeline
from .records import (ScoredHypothesis, parse_example, read_lines,
                      serialize_example, write_lines)

log = logging.getLogger(__name__)

EXIT_STAGE_FAILURE = 1
EXIT_VALIDATION_FAILURE = 2


def _exit_config_errors(diags):
    for d in diags:
        click.echo(f"config error: {d}", err=True)
    sys.exit(EXIT_VALIDATION_FAILURE)


def _load_config(config_path, mock, seed, out_dir, boost_factor=None, space=None, **fields):
    """The --config file's config, or the bundled mock corpus's, with the
    command's options applied: `fields` are PipelineConfig fields, and
    `boost_factor` and `space` set `filter`. Exits 2 if no valid config results."""
    if not (config_path or mock):
        raise click.UsageError("either --config or --mock is required")
    try:
        if config_path:
            cfg = pipeline.PipelineConfig.from_file(config_path)
            fields.update(mock=mock or None, seed=seed, out_dir=out_dir)
        else:
            cfg = pipeline.default_mock_config(out_dir or "out", seed=seed or 0)
        for name, value in fields.items():
            if value is not None:
                setattr(cfg, name, value)
        cfg.filter = dataclasses.replace(cfg.filter, **{
            k: v for k, v in (("boost_factor", boost_factor), ("space", space))
            if v is not None})
    except ValueError as e:     # pipeline.ConfigError, or FilterConfig's check
        _exit_config_errors([e])
    return cfg


def _run_stages(stage_names, **options):
    """Load and validate the config (exit 2 on a problem), then run
    `stage_names`, all stages if None (exit 1 on a stage failure)."""
    cfg = _load_config(**options)
    diags = pipeline.validate(cfg)
    if diags:
        _exit_config_errors(diags)
    try:
        summary = pipeline.run(cfg, stage_names,
                               progress=lambda s, c: click.echo(f"[{s}] {c}"))
    except pipeline.StageFailure as e:
        click.echo(str(e), err=True)
        sys.exit(EXIT_STAGE_FAILURE)
    return cfg, summary


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose):
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


_config_opts = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="Pipeline config file (YAML)."),
    click.option("--mock", is_flag=True, help="Use mock tools / bundled fixture data."),
    click.option("--seed", type=int, default=None),
    click.option("--out-dir", default=None),
]


def with_config_opts(fn):
    for opt in reversed(_config_opts):
        fn = opt(fn)
    return fn


@main.command(name="run")
@with_config_opts
@click.option("--stages", default=None,
              help="Comma-separated subset of: " + ",".join(pipeline.STAGES))
def run_cmd(stages, **options):
    """Run the dataset pipeline end to end."""
    cfg, summary = _run_stages(stages.split(",") if stages else None, **options)
    click.echo(json.dumps({"out_dir": cfg.out_dir, "stages": list(summary)}))


@main.command(name="validate")
@with_config_opts
def validate_cmd(**options):
    """Report configuration diagnostics without running anything."""
    diags = pipeline.validate(_load_config(**options))
    for d in diags:
        click.echo(d)
    sys.exit(EXIT_VALIDATION_FAILURE if diags else 0)


@main.command(name="crop")
@with_config_opts
@click.option("--mode", "crop_mode",
              type=click.Choice([cropping.VERBATIM, cropping.FULL_COVERAGE]), default=None)
def crop_cmd(**options):
    """Produce sliding-window child examples for every dataset."""
    _run_stages(["crop"], **options)


@main.command(name="generate-rationales")
@with_config_opts
def generate_cmd(**options):
    """Run the tool flows to produce rationales for whole images and crops."""
    _run_stages(["generate-rationales"], **options)


@main.command(name="filter")
@with_config_opts
@click.option("--lambda", "boost_factor", type=float, default=None)
@click.option("--space", type=click.Choice(["probability", "log"]), default=None)
def filter_cmd(**options):
    """Categorize crop rationales with the verifier and balance the output."""
    _run_stages(["filter"], **options)


@main.command(name="build-tasks")
@with_config_opts
@click.option("--tasks", "task_list", default=None,
              help="Comma-separated: qra,apr,qraci,apraci,qid,ans-only")
def build_tasks_cmd(task_list, **options):
    """Emit the training task files."""
    _run_stages(["build-tasks"], task_list=tuple(task_list.split(",")) if task_list else None,
                **options)


@main.command(name="vote")
@click.argument("hypotheses_file", type=click.Path(exists=True))
@click.option("--output", "-o", default="-", help="Predictions file (default stdout).")
@click.option("--calculator", is_flag=True,
              help="Execute the program of the winning answer's most probable "
                   "beam and substitute its result.")
def vote_cmd(hypotheses_file, output, calculator):
    """Aggregate beam hypotheses per example into final answers.

    Input lines: {"example_id":..., "decoded":..., "prob":...}
    """
    by_example: dict[str, list[ScoredHypothesis]] = {}
    order: list[str] = []
    for line in read_lines(hypotheses_file):
        obj = json.loads(line)
        if obj["example_id"] not in by_example:
            order.append(obj["example_id"])
        by_example.setdefault(obj["example_id"], []).append(
            ScoredHypothesis(decoded=obj["decoded"], prob=obj["prob"]))

    lines = []
    for example_id in order:
        try:
            result = inference.vote(by_example[example_id])
        except inference.AllNone:
            log.warning("example %s: every hypothesis answered None", example_id)
            answer, prob = "None", 0.0
        else:
            answer, prob = result.answer, result.aggregate_prob
            if calculator:
                answer = inference.apply_calculator(result.beam.decoded, answer)
        lines.append(json.dumps({"example_id": example_id, "answer": answer,
                                 "aggregate_prob": prob},
                                ensure_ascii=False, separators=(",", ":")))
    if output == "-":
        for line in lines:
            click.echo(line)
    else:
        write_lines(output, lines)


@main.command(name="eval")
@click.argument("predictions_file", type=click.Path(exists=True))
@click.argument("gold_file", type=click.Path(exists=True))
@click.option("--metric", type=click.Choice(["anls", "ra"]), required=True)
@click.option("--output", "-o", default="-", help="Report file (default stdout).")
def eval_cmd(predictions_file, gold_file, metric, output):
    """Score predictions against gold examples.

    Predictions: {"example_id":..., "answer":...} lines; gold: example records.
    """
    gold = {ex.example_id: ex.gold_answers
            for ex in (parse_example(line) for line in read_lines(gold_file))}
    pairs = []
    for line in read_lines(predictions_file):
        obj = json.loads(line)
        if obj["example_id"] not in gold:
            log.warning("prediction for unknown example %s", obj["example_id"])
            continue
        pairs.append((obj["answer"], gold[obj["example_id"]]))
    report = inference.score_predictions(metric.upper(), pairs)
    text = json.dumps(report.to_json(), indent=2)
    if output == "-":
        click.echo(text)
    else:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text + "\n")


@main.group(name="dsl")
def dsl_group():
    """Debug helpers for the program rationale language."""


@dsl_group.command(name="exec")
@click.argument("source")
def dsl_exec_cmd(source):
    """Parse and execute one program, printing its rendered result."""
    try:
        program = dsl.parse(source)
    except ValueError as e:
        click.echo(f"parse error: {e}", err=True)
        sys.exit(EXIT_STAGE_FAILURE)
    try:
        result = dsl.execute(program)
    except ZeroDivisionError:
        click.echo("error: division by zero", err=True)
        sys.exit(EXIT_STAGE_FAILURE)
    if result.kind == "passthrough":
        click.echo(f"passthrough: {program.args[0]}")
    else:
        click.echo(result.render())


@main.command(name="make-fixture")
@click.argument("out_path", type=click.Path())
@click.option("--kind", type=click.Choice(["docs", "charts"]), default="docs")
def make_fixture_cmd(out_path, kind):
    """Write the bundled synthetic dataset to a file."""
    from . import fixtures
    examples = (fixtures.make_doc_examples() if kind == "docs"
                else fixtures.make_chart_examples())
    write_lines(out_path, (serialize_example(e) for e in examples))
    click.echo(f"wrote {len(examples)} examples to {out_path}")


if __name__ == "__main__":
    main()
