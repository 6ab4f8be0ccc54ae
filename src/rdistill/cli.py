"""Command-line entry points for the dataset pipeline and inference tools.

`run` is the one command that runs pipeline stages, `--stages` choosing
which; `validate` takes the same options and runs nothing. Exit codes: 0
success, 1 stage failure, 2 validation failure.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys

import click

from . import cropping, dsl, inference, pipeline
from .records import (TASK_NAMES, MalformedRecord, ScoredHypothesis, _dumps,
                      numbered_lines, parse_gold, parse_hypothesis, parse_prediction,
                      serialize_example, write_lines)

log = logging.getLogger(__name__)

EXIT_STAGE_FAILURE = 1
EXIT_VALIDATION_FAILURE = 2


def _exit_config_errors(diags):
    for d in diags:
        click.echo(f"config error: {d}", err=True)
    sys.exit(EXIT_VALIDATION_FAILURE)


def _load_config(config_path, mock, seed, out_dir, boost_factor=None, space=None,
                 stages=None, **fields):
    """The --config file's config, or the bundled mock corpus's, with the
    command's options applied: `fields` are PipelineConfig fields, and
    `boost_factor` and `space` set `filter`. Exits 2 if no valid config results.
    The bundled corpus's data files are written only once `pipeline.validate`
    finds nothing wrong with a run of `stages` without them, so a config
    error leaves no file behind."""
    if not (config_path or mock):
        raise click.UsageError("either --config or --mock is required")
    if config_path:
        try:
            cfg = pipeline.PipelineConfig.from_file(config_path)
        except pipeline.ConfigError as e:
            _exit_config_errors(e.diagnostics)
        fields.update(mock=mock or None, seed=seed, out_dir=out_dir)
    else:
        cfg = pipeline.default_mock_config(out_dir or "out", seed=seed or 0, write=False)
    for name, value in fields.items():
        if value is not None:
            setattr(cfg, name, value)
    cfg.filter = dataclasses.replace(cfg.filter, **{
        k: v for k, v in (("boost_factor", boost_factor), ("space", space)) if v is not None})
    if not config_path:
        diags = pipeline.validate(cfg, stages, read_datasets=False)
        if diags:
            _exit_config_errors(diags)
        pipeline.write_mock_data(cfg)
    return cfg


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose):
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


def _comma_list(ctx, param, value):
    return tuple(value.split(",")) if value else None


# every option of `run` is also one of `validate`, so `validate` reports
# exactly what `run` with the same options refuses
_config_opts = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="Pipeline config file (YAML)."),
    click.option("--mock", is_flag=True, help="Use mock tools / bundled fixture data."),
    click.option("--seed", type=int, default=None),
    click.option("--out-dir", default=None),
    click.option("--stages", callback=_comma_list, default=None,
                 help="Comma-separated subset of: " + ",".join(pipeline.STAGES)
                 + " (default all)."),
    click.option("--mode", "crop_mode",
                 type=click.Choice([cropping.VERBATIM, cropping.FULL_COVERAGE]), default=None,
                 help="Crop mode (crop_mode)."),
    click.option("--lambda", "boost_factor", type=float, default=None,
                 help="The verifier filter's λ (filter.boost_factor)."),
    click.option("--space", type=click.Choice(["probability", "log"]), default=None,
                 help="The space λ applies in (filter.space)."),
    click.option("--tasks", callback=_comma_list, default=None,
                 help="Comma-separated subset of: " + ",".join(TASK_NAMES)),
]


def with_config_opts(fn):
    for opt in reversed(_config_opts):
        fn = opt(fn)
    return fn


@main.command(name="run")
@with_config_opts
def run_cmd(stages, **options):
    """Run pipeline stages (all, or `--stages`).

    The stages run in pipeline order, each skipping itself while its
    outputs are fresh. Exits 1 when a stage fails."""
    cfg = _load_config(stages=stages, **options)
    try:
        summary = pipeline.run(cfg, stages, progress=lambda s, c: click.echo(f"[{s}] {c}"))
    except pipeline.ConfigError as e:
        _exit_config_errors(e.diagnostics)
    except pipeline.StageFailure as e:
        click.echo(str(e), err=True)
        sys.exit(EXIT_STAGE_FAILURE)
    click.echo(json.dumps({"out_dir": cfg.out_dir, "stages": list(summary)}))


@main.command(name="validate")
@with_config_opts
def validate_cmd(stages, **options):
    """Report what `run` would refuse; run nothing.

    Prints the diagnostics of `run` with the same options, a `config error:`
    line each, and exits 2 if there are any."""
    diags = pipeline.validate(_load_config(stages=stages, **options), stages)
    if diags:
        _exit_config_errors(diags)


@main.command(name="vote")
@click.argument("hypotheses_file", type=click.Path(exists=True))
@click.option("--output", "-o", default="-", help="Predictions file (default stdout).")
@click.option("--calculator", is_flag=True,
              help="Execute the program of the winning answer's most probable "
                   "beam and substitute its result.")
def vote_cmd(hypotheses_file, output, calculator):
    """Aggregate beam hypotheses per example into final answers.

    Input lines: {"example_id":..., "decoded":..., "prob":...}. A line that
    is not one, or whose prob is not > 0, is skipped with a warning.
    """
    by_example: dict[str, list[ScoredHypothesis]] = {}
    for line_no, line in numbered_lines(hypotheses_file):
        try:
            example_id, hyp = parse_hypothesis(line, line_no)
        except MalformedRecord as e:
            log.warning("skipping %s %s", hypotheses_file, e)
            continue
        by_example.setdefault(example_id, []).append(hyp)

    lines = []
    for example_id, hyps in by_example.items():
        try:
            result = inference.vote(hyps, example_id)
        except inference.AllNone:
            log.warning("example %s: every hypothesis answered None", example_id)
            answer, prob = "None", 0.0
        else:
            answer, prob = result.answer, result.aggregate_prob
            if calculator:
                answer = inference.apply_calculator(result.beam.decoded, answer)
        lines.append(_dumps({"example_id": example_id, "answer": answer,
                             "aggregate_prob": prob}))
    if output == "-":
        for line in lines:
            click.echo(line)
    else:
        write_lines(output, lines)


def _eval_error(message: str):
    click.echo(f"eval error: {message}", err=True)
    sys.exit(EXIT_VALIDATION_FAILURE)


@main.command(name="eval")
@click.argument("predictions_file", type=click.Path(exists=True))
@click.argument("gold_file", type=click.Path(exists=True))
@click.option("--metric", type=click.Choice(["anls", "ra"]), required=True)
@click.option("--output", "-o", default="-", help="Report file (default stdout).")
def eval_cmd(predictions_file, gold_file, metric, output):
    """Score predictions against gold examples.

    Predictions: {"example_id":..., "answer":...} lines; gold: example
    records, of which only example_id and gold_answers are read. Each gold
    example needs exactly one prediction; a prediction for an unknown
    example is skipped with a warning. A malformed line, a second prediction
    or gold record for an example, or a gold example without a prediction
    exits 2.
    """
    gold = {}
    for line_no, line in numbered_lines(gold_file):
        try:
            example_id, answers = parse_gold(line, line_no)
        except MalformedRecord as e:
            _eval_error(f"{gold_file} {e}")
        if example_id in gold:
            _eval_error(f"{gold_file} line {line_no}: second gold example {example_id!r}")
        gold[example_id] = answers
    pairs, predicted = [], set()
    for line_no, line in numbered_lines(predictions_file):
        try:
            example_id, answer = parse_prediction(line, line_no)
        except MalformedRecord as e:
            _eval_error(f"{predictions_file} {e}")
        if example_id not in gold:
            log.warning("prediction for unknown example %s", example_id)
            continue
        if example_id in predicted:
            _eval_error(f"{predictions_file} line {line_no}: second prediction for "
                        f"example {example_id!r}")
        predicted.add(example_id)
        pairs.append((answer, gold[example_id]))
    missing = [example_id for example_id in gold if example_id not in predicted]
    if missing:
        _eval_error(f"{len(missing)} gold example(s) have no prediction, first "
                    + ", ".join(map(repr, missing[:3])))
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
        text = (f"passthrough: {program.args[0]}" if result.kind == "passthrough"
                else result.render())
    except ZeroDivisionError:
        click.echo("error: division by zero", err=True)
        sys.exit(EXIT_STAGE_FAILURE)
    except dsl.NonFinite as e:
        click.echo(f"error: the result is not finite ({e})", err=True)
        sys.exit(EXIT_STAGE_FAILURE)
    click.echo(text)


@main.command(name="make-fixture")
@click.argument("out_path", type=click.Path())
@click.option("--kind", type=click.Choice(list(pipeline.MOCK_DATASETS)), default="docs")
def make_fixture_cmd(out_path, kind):
    """Write the bundled synthetic dataset to a file."""
    examples = pipeline.MOCK_DATASETS[kind][1]()
    write_lines(out_path, (serialize_example(e) for e in examples))
    click.echo(f"wrote {len(examples)} examples to {out_path}")


if __name__ == "__main__":
    main()
