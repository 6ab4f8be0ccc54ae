"""Shared domain types and line-delimited record serialization.

All types are immutable after construction and safe to share across
parallel workers. Stage files are UTF-8, one JSON object per line, LF
line endings, with a fixed field order so identical inputs always
produce byte-identical output.

Every JSONL line the package writes (stage, task, prediction and
response-cache lines) has the bytes of one encoder, `_dumps`, built once at
import: those of `json.dumps(obj, ensure_ascii=False, separators=(",",
":"))`, NaN and infinities included. The stage and task lines a build
writes per record (`serialize_example`, `serialize_scores`,
`serialize_categorized`, `serialize_record`) are each one f-string of
`_string`, `_image_json` and `_dumps` of the nested values: the bytes
`_dumps` writes for the record's dict, with no dict built.

Records are plain data: building one checks nothing. Outside data enters
through a line parser here (the `parse_*` functions and the `from_json`
methods behind them) or an HTTP tool client (`tools`), which check each
field they read, its type through `_typed` (a table's through `_table`), so
a bad field reads alike from each. A record built from checked records (a
crop from its page, a verdict from its scores) is not checked again. So a
string a line writes is a str, and a number an int or float.

A rationale line (`serialize_rationale`) is `_dumps` of its example_id and
`Rationale.to_json()`. Every JSONL line the package reads (stage, task,
beam, prediction and response-cache lines, and HTTP replies) goes through
one decoder, `_loads`, built once at import: it returns what `json.loads`
returns and raises what it raises. A line whose JSON escapes a lone
surrogate holds no UTF-8 text and parses as a MalformedRecord.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice

NONE_SENTINEL = "None"

# task key, as a config's task list names it -> task name, as records and
# task files (tasks/<name>.jsonl) carry it
TASK_NAMES = {"qra": "QRA", "apr": "APR", "qraci": "QRACI", "apraci": "APRCI",
              "qid": "QID", "ans-only": "ANS_ONLY"}

CATEGORIES = ("irrelevant", "relevant-not-useful", "useful")


def is_none_answer(text: str) -> bool:
    """True if `text` is the None sentinel (exact match after trimming)."""
    return text.strip() == NONE_SENTINEL


class MalformedRecord(ValueError):
    """A serialized record line violates the schema."""

    def __init__(self, reason: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {reason}" if line_no else reason)
        self.reason = reason
        self.line_no = line_no


STRING, INT, NUMBER, BOOL = (str,), (int,), (int, float), (bool,)   # the types of each kind
_KIND_NAMES = {STRING: ("a string", "strings"), INT: ("an int", "ints"),
               NUMBER: ("a number", "numbers"), BOOL: ("a bool", "bools")}


def _typed(kind: tuple, name: str, value, where: str = ""):
    """`value`, when it is exactly of a type of `kind` (a bool is no int and
    no number), or is a tuple of such values, such as an image's height and
    width. Else a ValueError worded alike for every field:
    "<where><name> <value> is not <kind>", or for a tuple "<where><name> must
    be <kind>s, not <value>, ... and <value>"."""
    if type(value) in kind:
        return value
    if type(value) is tuple:    # no JSON value is one
        for v in value:
            if type(v) not in kind:
                shown = [repr(v) for v in value]
                raise ValueError(f"{where}{name} must be {_KIND_NAMES[kind][1]}, not "
                                 f"{', '.join(shown[:-1])} and {shown[-1]}")
        return value
    raise ValueError(f"{where}{name} {value!r} is not {_KIND_NAMES[kind][0]}")


def _table(name: str, rows, where: str = "") -> tuple[tuple[str, ...], ...]:
    """`rows`, a list of lists of strings, as a tuple of tuples, else a ValueError
    worded alike for the table of a dataset line, a rationale line and a
    plot-to-table reply."""
    if type(rows) is list and all([type(row) is list for row in rows]):
        table = tuple(map(tuple, rows))
        if all([type(cell) is str for row in table for cell in row]):
            return table
    raise ValueError(f"{where}{name} {rows!r} is not a list of lists of strings")


@dataclass(frozen=True, slots=True)
class Crop:
    """A window along one axis of the parent image, in parent pixel coords."""

    axis: str  # "height" or "width"
    start: int
    end: int


@dataclass(frozen=True, slots=True)
class ImageRef:
    """Reference to an image: geometry plus an opaque id, no pixel data.

    When `crop` is set, it marks a window on the *parent* geometry; height
    and width stay those of the parent so downstream consumers apply the
    crop rectangle themselves.
    """

    id: str
    height: int
    width: int
    crop: Crop | None = None
    source_uri: str = ""

    def to_json(self) -> dict:
        crop = self.crop and {"axis": self.crop.axis, "start": self.crop.start,
                              "end": self.crop.end}
        return {"id": self.id, "height": self.height, "width": self.width, "crop": crop,
                "source_uri": self.source_uri}

    @classmethod
    def from_json(cls, obj: dict) -> "ImageRef":
        """The image `obj` holds: its id and source_uri strings, its geometry
        positive ints (not `true` or `100.0`: `_image_json` writes ints), and
        its crop window inside its axis, no longer than the short edge."""
        image_id = obj["id"]    # first: a value that is not an object raises TypeError
        crop = obj.get("crop") or None
        height, width = obj["height"], obj["width"]
        if crop is not None:
            crop = Crop(crop["axis"], crop["start"], crop["end"])
            if crop.axis not in ("height", "width"):
                raise ValueError(f"bad crop axis {crop.axis!r}")
            _typed(INT, "start and end", (crop.start, crop.end), "crop ")
            if not 0 <= crop.start < crop.end:
                raise ValueError(f"bad crop window [{crop.start}, {crop.end})")
        source_uri = obj.get("source_uri", "")
        where = f"image {image_id!r}: "
        _typed(STRING, "id and source_uri", (image_id, source_uri), where)
        _typed(INT, "height and width", (height, width), where)
        if height <= 0 or width <= 0:
            raise ValueError(f"{where}non-positive geometry")
        if crop is not None:
            extent = height if crop.axis == "height" else width
            if crop.end > extent:
                raise ValueError(f"{where}crop end {crop.end} exceeds extent {extent}")
            # full-size except for a clamped final window
            if crop.end - crop.start > min(height, width):
                raise ValueError(f"{where}crop larger than short edge")
        return cls(image_id, height, width, crop, source_uri)


@dataclass(frozen=True, slots=True)
class OcrBox:
    """One recognized text span with its pixel bounding box."""

    text: str
    x0: int
    y0: int
    x1: int
    y1: int

    def to_json(self) -> list:
        return [self.text, self.x0, self.y0, self.x1, self.y1]


def _box(obj, image: ImageRef, where: str) -> OcrBox:
    """The OCR box [text, x0, y0, x1, y1] `obj` holds: a string and four ints, within `image`."""
    box = OcrBox(obj[0], obj[1], obj[2], obj[3], obj[4])
    _typed(STRING, "OCR box text", box.text, where)
    _typed(INT, "OCR box coordinates", (box.x0, box.y0, box.x1, box.y1), where)
    if not (0 <= box.x0 <= box.x1 <= image.width and 0 <= box.y0 <= box.y1 <= image.height):
        raise ValueError(f"{where}OCR box {box.text!r} outside image bounds")
    return box


def _gold(obj: dict) -> tuple[str, tuple[str, ...]]:
    """An example's id and gold answers: a string, and a non-empty list of
    strings, none of them blank or the None sentinel."""
    example_id = _typed(STRING, "example_id", obj["example_id"])
    answers = obj["gold_answers"]
    answers = tuple(answers) if type(answers) is list else answers
    if type(answers) is not tuple or not answers:
        raise ValueError(f"example {example_id!r}: gold_answers must be a non-empty "
                         f"list of strings, not {answers!r}")
    where = f"example {example_id!r}: "
    for a in answers:
        trimmed = _typed(STRING, "gold answer", a, where).strip()
        if not trimmed:
            raise ValueError(f"{where}gold answer {a!r} is blank")
        if trimmed == NONE_SENTINEL:
            raise ValueError(f"{where}gold answer collides with None sentinel")
    return example_id, answers


@dataclass(frozen=True, slots=True)
class QAExample:
    """One (image, question, gold answers) record plus OCR text."""

    example_id: str
    image: ImageRef
    question: str
    gold_answers: tuple[str, ...]
    ocr_text: str = ""
    ocr_boxes: tuple[OcrBox, ...] | None = None
    structured_table: tuple[tuple[str, ...], ...] | None = None

    @property
    def canonical_answer(self) -> str:
        """First gold answer; the single `a` used by filtering and training."""
        return self.gold_answers[0]

    def to_json(self) -> dict:
        return {
            "example_id": self.example_id,
            "image": self.image.to_json(),
            "question": self.question,
            "gold_answers": self.gold_answers,
            "ocr_text": self.ocr_text,
            "ocr_boxes": [b.to_json() for b in self.ocr_boxes] if self.ocr_boxes is not None else None,
            "structured_table": self.structured_table,
        }

    @classmethod
    def from_json(cls, obj: dict, header_only: bool = False) -> "QAExample":
        """The example `obj` holds: its question and OCR text strings, boxes
        for any OCR text (crop keeps a window's text by them), and its table
        `_table`'s. With `header_only`, its header: the id, image, question
        and gold answers, checked alike; the rest is left at its defaults."""
        example_id, gold = _gold(obj)   # first: a value that is not an object raises TypeError
        image = ImageRef.from_json(obj["image"])
        where = f"example {example_id!r}: "
        question = _typed(STRING, "question", obj["question"], where)
        if header_only:
            return cls(example_id, image, question, gold)
        ocr_text = _typed(STRING, "ocr_text", obj.get("ocr_text", ""), where)
        boxes, table = obj.get("ocr_boxes"), obj.get("structured_table")
        if boxes is None and ocr_text:
            raise ValueError(f"{where}ocr_text without ocr_boxes")
        return cls(example_id, image, question, gold, ocr_text,
                   tuple(_box(b, image, where) for b in boxes) if boxes is not None else None,
                   _table("structured_table", table, where) if table is not None else None)


TEXT_EVIDENCE = "text_evidence"
TABLE_PROGRAM = "table_program"


@dataclass(frozen=True, slots=True)
class Rationale:
    """Tagged union: OCR-derived text evidence, or table + program source.

    `flagged` marks a rationale with nothing to predict, its program or
    evidence empty: no program `dsl.parse` accepts, or blank evidence. It is
    excluded from rationale-prediction targets (QRA, QRACI) but kept for
    answer-only training (APRCI).
    """

    kind: str
    evidence: str = ""
    table: tuple[tuple[str, ...], ...] = ()
    program_source: str = ""
    flagged: bool = False

    @classmethod
    def text(cls, evidence: str) -> "Rationale":
        return cls(kind=TEXT_EVIDENCE, evidence=evidence)

    @classmethod
    def program(cls, table, program_source: str, flagged: bool = False) -> "Rationale":
        """A table-program rationale. A `table` that already is a tuple of
        tuples is kept, not copied, so the rationales of a page's crops all
        hold the page's one table; any other is copied into one."""
        if not (type(table) is tuple and all(type(r) is tuple for r in table)):
            table = tuple(tuple(r) for r in table)
        return cls(kind=TABLE_PROGRAM, table=table, program_source=program_source,
                   flagged=flagged)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "evidence": self.evidence,
            "table": self.table,
            "program_source": self.program_source,
            "flagged": self.flagged,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Rationale":
        """The rationale `obj` holds: text evidence with no table or program,
        or a table and program with no evidence, not blank unless flagged;
        strings, a `_table` and a bool."""
        r = cls(obj["kind"], _typed(STRING, "evidence", obj.get("evidence", "")),
                _table("table", obj.get("table", [])),
                _typed(STRING, "program_source", obj.get("program_source", "")),
                _typed(BOOL, "flagged", obj.get("flagged", False)))
        if r.kind == TEXT_EVIDENCE:
            if r.table or r.program_source:
                raise ValueError("text-evidence rationale carries table/program fields")
        elif r.kind == TABLE_PROGRAM:
            if r.evidence:
                raise ValueError("table-program rationale carries evidence field")
        else:
            raise ValueError(f"bad rationale kind {r.kind!r}")
        if not (r.flagged or (r.evidence or r.program_source).strip()):
            raise ValueError(f"unflagged {r.kind} rationale with nothing to predict")
        return r


@dataclass(frozen=True, slots=True)
class VerifierScores:
    """Audit record of the verifier calls behind one categorization."""

    logp_with: float
    logp_without: float
    greedy: str

    def to_json(self) -> dict:
        return {"logp_with": self.logp_with, "logp_without": self.logp_without,
                "greedy": self.greedy}

    @classmethod
    def from_json(cls, obj: dict) -> "VerifierScores":
        """The scores `obj` holds: two JSON numbers (NaN and the infinities
        too, as `_float_json` writes them) and a string."""
        return cls(_typed(NUMBER, "logp_with", obj["logp_with"]),
                   _typed(NUMBER, "logp_without", obj["logp_without"]),
                   _typed(STRING, "greedy", obj["greedy"]))


@dataclass(frozen=True, slots=True)
class Verdict:
    """The filter's decision about one crop and the scores behind it.

    This is all a categorized line holds: the crop's question and image live
    in the crop file, its rationale in the crop-rationale file.
    """

    example_id: str
    category: str
    effective_answer: str
    scores: VerifierScores


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """One emitted training line for a student task."""

    task: str
    example_id: str
    image: ImageRef
    decoder_input: str
    decoder_output: str

    def __post_init__(self):
        if self.task not in TASK_NAMES.values():
            raise ValueError(f"unknown task {self.task!r}")
        input_free = self.task in ("QRA", "QRACI", "QID", "ANS_ONLY")
        if input_free and self.decoder_input:
            raise ValueError(f"task {self.task} must have empty decoder_input")
        if not input_free and not self.decoder_input:
            raise ValueError(f"task {self.task} requires a decoder_input")
        if not self.decoder_output:
            raise ValueError("decoder_output must be non-empty")


@dataclass(frozen=True, slots=True)
class ScoredHypothesis:
    """One beam-search hypothesis: full decoded sequence plus probability."""

    decoded: str
    prob: float
    line_no: int = field(default=0, compare=False)  # its line in the beam file, 0 if none


def _make_dumps():
    """The encoder of every JSONL line. json.dumps with these options builds
    a new encoder per call, and so does JSONEncoder.encode; this one is built
    once, with the same options and so the same bytes. A tuple is written as
    an array, as json.dumps writes it."""
    encoder = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), check_circular=False)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    encode = json.encoder.c_make_encoder(
        None, encoder.default, json.encoder.encode_basestring, None, encoder.key_separator,
        encoder.item_separator, False, False, True)

    def dumps(obj) -> str:
        return "".join(encode(obj, 0))

    return dumps


_dumps = _make_dumps()
_string = json.encoder.encode_basestring   # a str as the JSON string _dumps writes for it


# the C scanner json.loads ends in, built once: json.loads reaches it through
# JSONDecoder.decode, raw_decode and two whitespace matches per call. None
# where the C module is missing.
_scan = (None if json.scanner.c_make_scanner is None
         else json.scanner.c_make_scanner(json.JSONDecoder()))


def _loads(line: str):
    """json.loads, refusing a string that escapes a lone surrogate: valid
    JSON, but no text UTF-8 can hold. The scanner's value is taken only when
    it reads the whole line from its first character; any other line (one
    with surrounding whitespace, a BOM, extra data or an error) goes to
    json.loads, so it gets json.loads' value or exception. Only a line with a
    \\u escape can hold a lone surrogate, so other lines pay for the check
    with a search for a backslash (one memchr, where a search for "\\u"
    costs several times as much)."""
    end = -1
    if _scan is not None:
        try:
            obj, end = _scan(line, 0)
        except Exception:   # json.loads raises it again, or reads past leading space
            pass
    if end != len(line):
        obj = json.loads(line)
    if "\\" in line and "\\u" in line:
        try:
            _dumps(obj).encode("utf-8")
        except UnicodeEncodeError as e:
            raise ValueError(f"lone surrogate \\u{ord(e.object[e.start]):04x} in a string") \
                from None
    return obj


def _parse_line(line: str, line_no: int, build):
    """`build(_loads(line))`: the one place where a parser's error becomes a
    MalformedRecord, worded alike for every parser. A line that is not JSON,
    one that is JSON but not an object (indexing it by a field name is a
    TypeError) and an object without a field (a KeyError) each have their
    wording; any other error, such as an IndexError for a short OCR box,
    gives its own text."""
    try:
        return build(_loads(line))
    except (ValueError, KeyError, TypeError, IndexError) as e:
        if isinstance(e, json.JSONDecodeError):
            reason = f"not JSON ({e})"
        elif isinstance(e, TypeError) and not line.lstrip().startswith("{"):
            reason = "not a JSON object"
        elif isinstance(e, KeyError):
            reason = f"missing field {e}"
        else:
            reason = str(e)
        raise MalformedRecord(reason, line_no) from e


def _image_json(image: ImageRef) -> str:
    """`_dumps(image.to_json())`, put together without building the dict:
    the same bytes, since an image's strings are str and its geometry int."""
    crop = image.crop
    crop_json = "null" if crop is None else \
        f'{{"axis":{_string(crop.axis)},"start":{crop.start},"end":{crop.end}}}'
    return (f'{{"id":{_string(image.id)},"height":{image.height},"width":{image.width},'
            f'"crop":{crop_json},"source_uri":{_string(image.source_uri)}}}')


def serialize_record(record: TaskRecord) -> str:
    """One deterministic line per task record, fixed field order: the line
    `_dumps` writes for {"task", "example_id", "image", "decoder_input",
    "decoder_output"}, put together without building that dict."""
    return (f'{{"task":{_string(record.task)},"example_id":{_string(record.example_id)},'
            f'"image":{_image_json(record.image)},'
            f'"decoder_input":{_string(record.decoder_input)},'
            f'"decoder_output":{_string(record.decoder_output)}}}')


def parse_record(line: str, line_no: int = 0) -> TaskRecord:
    """Inverse of serialize_record; raises MalformedRecord on schema violations."""
    return _parse_line(line, line_no, lambda obj: TaskRecord(
        task=obj["task"],
        example_id=_typed(STRING, "example_id", obj["example_id"]),
        image=ImageRef.from_json(obj["image"]),
        decoder_input=obj["decoder_input"],
        decoder_output=obj["decoder_output"],
    ))


def serialize_example(example: QAExample) -> str:
    """An example line: the line `_dumps` writes for `example.to_json()`,
    put together without building that dict. Its id, question, gold answers
    and OCR text are strings and its image `_image_json`'s, as they are in
    any example built from a parsed one; its OCR boxes and table go through
    `_dumps`."""
    boxes, table = example.ocr_boxes, example.structured_table
    return (f'{{"example_id":{_string(example.example_id)},'
            f'"image":{_image_json(example.image)},"question":{_string(example.question)},'
            f'"gold_answers":[{",".join(map(_string, example.gold_answers))}],'
            f'"ocr_text":{_string(example.ocr_text)},'
            f'"ocr_boxes":{"null" if boxes is None else _dumps([b.to_json() for b in boxes])},'
            f'"structured_table":{"null" if table is None else _dumps(table)}}}')


def parse_example(line: str, line_no: int = 0) -> QAExample:
    return _parse_line(line, line_no, QAExample.from_json)


def parse_header(line: str, line_no: int = 0) -> QAExample:
    """An example line's header: the example `parse_example` gives, with no
    OCR text, boxes or table. Its id, image, question and gold answers are
    checked as `parse_example` checks them, and fail with the same error;
    the other fields are neither built nor checked. For readers that use
    nothing else: a reader that makes rationales needs the OCR text."""
    return _parse_line(line, line_no, lambda obj: QAExample.from_json(obj, header_only=True))


def parse_gold(line: str, line_no: int = 0) -> tuple[str, tuple[str, ...]]:
    """An example line's example_id and gold answers, checked as
    `parse_example` checks them; its other fields are neither built nor
    checked."""
    return _parse_line(line, line_no, _gold)


def serialize_rationale(example_id: str, rationale: Rationale) -> str:
    """A rationale line: `_dumps` of {"example_id", "rationale"}."""
    return _dumps({"example_id": example_id, "rationale": rationale.to_json()})


def parse_rationale(line: str, line_no: int = 0) -> tuple[str, Rationale]:
    """Inverse of serialize_rationale: a rationale line's example_id and rationale."""
    return _parse_line(line, line_no, lambda obj: (
        _typed(STRING, "example_id", obj["example_id"]), Rationale.from_json(obj["rationale"])))


def serialize_categorized(verdict: Verdict) -> str:
    """A verdict line: the line `_dumps` writes for {"example_id",
    "category", "effective_answer", "scores"}, put together without building
    that dict (see `_scores_json`). Its example_id is its crop's, and its
    effective answer the crop's gold answer or the None sentinel."""
    return (f'{{"example_id":{_string(verdict.example_id)},'
            f'"category":{_string(verdict.category)},'
            f'"effective_answer":{_string(verdict.effective_answer)},'
            f'"scores":{_scores_json(verdict.scores)}}}')


def parse_categorized(line: str, line_no: int = 0) -> Verdict:
    """Inverse of serialize_categorized. Lines in the older full format, which
    also repeat the crop's question, image and rationale, parse to the same."""
    return _parse_line(line, line_no, _verdict)


def _verdict(obj: dict) -> Verdict:
    """The verdict `obj` holds: a known category, and the None sentinel as
    its effective answer exactly when the category is irrelevant."""
    example_id = _typed(STRING, "example_id", obj["example_id"])
    category, answer = obj["category"], obj["effective_answer"]
    scores = VerifierScores.from_json(obj["scores"])
    if category not in CATEGORIES:
        raise ValueError(f"bad category {category!r}")
    if (category == "irrelevant") != is_none_answer(_typed(STRING, "effective_answer", answer)):
        raise ValueError("irrelevant category must pair with the None sentinel answer")
    return Verdict(example_id, category, answer, scores)


_INF = float("inf")


def _float_json(value) -> str:
    """What `_dumps` writes for a score: `float.__repr__` of a finite float,
    and `_dumps`' own text for anything else (NaN, an infinity, an int)."""
    if type(value) is float and -_INF < value < _INF:
        return value.__repr__()
    return _dumps(value)


def _scores_json(scores: VerifierScores) -> str:
    """`_dumps(scores.to_json())` without the dict: greedy is a str, as
    `VerifierScores.from_json` and the verifier clients check."""
    return (f'{{"logp_with":{_float_json(scores.logp_with)},'
            f'"logp_without":{_float_json(scores.logp_without)},'
            f'"greedy":{_string(scores.greedy)}}}')


def serialize_scores(example_id: str, scores: VerifierScores) -> str:
    """A scores line: example_id and the scores object a verdict line holds,
    the line `_dumps` writes for {"example_id", "scores"}, put together
    without building that dict."""
    return f'{{"example_id":{_string(example_id)},"scores":{_scores_json(scores)}}}'


def parse_scores(line: str, line_no: int = 0) -> tuple[str, VerifierScores]:
    """Inverse of serialize_scores."""
    return _parse_line(line, line_no, lambda obj: (
        _typed(STRING, "example_id", obj["example_id"]), VerifierScores.from_json(obj["scores"])))


def parse_hypothesis(line: str, line_no: int = 0) -> tuple[str, ScoredHypothesis]:
    """A beam line, {"example_id", "decoded", "prob"}: its example_id and hypothesis."""
    def build(obj: dict) -> tuple[str, ScoredHypothesis]:
        example_id = _typed(STRING, "example_id", obj["example_id"])
        decoded, prob = _typed(STRING, "decoded", obj["decoded"]), obj["prob"]
        if not prob > 0:
            raise ValueError("hypothesis probability must be > 0")
        return example_id, ScoredHypothesis(decoded, prob, line_no)

    return _parse_line(line, line_no, build)


def parse_prediction(line: str, line_no: int = 0) -> tuple[str, str]:
    """A prediction line, {"example_id", "answer", ...}: its example_id and answer."""
    return _parse_line(line, line_no, lambda obj: (
        _typed(STRING, "example_id", obj["example_id"]), _typed(STRING, "answer", obj["answer"])))


_WRITE_BATCH = 256   # lines joined into one write


def write_lines(path, lines) -> None:
    """Write records as UTF-8 LF lines, a batch of them per write."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        while batch := list(islice(lines, _WRITE_BATCH)):
            batch.append("")
            f.write("\n".join(batch))


def numbered_lines(path):
    """(line number, line) of each non-empty line, numbered as in the file, from 1."""
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if line:
                yield line_no, line


def read_lines(path):
    """The non-empty lines of `path`, as `numbered_lines` without the numbers."""
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                yield line
