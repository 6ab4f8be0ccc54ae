import dataclasses
import json
import math
import re
import sys
import unittest.mock

import pytest
from hypothesis import example, given, strategies as st

import rdistill.records
from rdistill.cropping import FULL_COVERAGE, VERBATIM, apply_plan, plan_crops
from rdistill.records import (CATEGORIES, TASK_NAMES, Crop, ImageRef,
                              MalformedRecord, OcrBox, QAExample, Rationale,
                              ScoredHypothesis, TaskRecord, Verdict, VerifierScores, _dumps,
                              _loads, _make_dumps, is_none_answer, parse_categorized,
                              parse_example, parse_gold, parse_header, parse_hypothesis,
                              parse_prediction, parse_rationale, parse_record,
                              parse_scores, serialize_categorized, serialize_example,
                              serialize_rationale, serialize_record, serialize_scores,
                              write_lines)


def make_image(id="img1", h=400, w=400, crop=None):
    return ImageRef(id=id, height=h, width=w, crop=crop)


def make_record(task="QRA", decoder_input="", decoder_output="Q <answer> A"):
    return TaskRecord(task=task, example_id="e1", image=make_image(),
                      decoder_input=decoder_input, decoder_output=decoder_output)


class TestTaskRecordSerialization:
    def test_empty_decoder_input_field(self):
        line = serialize_record(make_record())
        assert '"decoder_input":""' in line

    def test_round_trip(self):
        r = make_record()
        assert parse_record(serialize_record(r)) == r

    def test_serialization_is_deterministic(self):
        r = make_record()
        assert serialize_record(r).encode() == serialize_record(r).encode()

    def test_missing_task_field(self):
        line = serialize_record(make_record())
        obj = json.loads(line)
        del obj["task"]
        with pytest.raises(MalformedRecord):
            parse_record(json.dumps(obj))

    def test_unknown_task_name(self):
        line = serialize_record(make_record()).replace('"QRA"', '"FOO"')
        with pytest.raises(MalformedRecord):
            parse_record(line)

    def test_not_json(self):
        with pytest.raises(MalformedRecord):
            parse_record("garbage with no marker")


text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=30)

records = st.builds(
    TaskRecord,
    task=st.just("APR"),
    example_id=text,
    image=st.builds(make_image, id=text,
                    h=st.integers(1, 2000), w=st.integers(1, 2000)),
    decoder_input=text,
    decoder_output=text,
)


@given(records)
def test_round_trip_property(record):
    assert parse_record(serialize_record(record)) == record


@given(records, records)
def test_serialization_injective(a, b):
    if a != b:
        assert serialize_record(a) != serialize_record(b)


class TestInvariants:
    """Records check nothing when built: a line's parsers refuse what no
    record may hold, and a task record refuses a decoder pair its task
    cannot have."""

    def refused(self, parsers, reason, image=None, **fields):
        obj = example_dict(QAExample(example_id="e", image=image or make_image(), question="q",
                                     gold_answers=("a",)))
        obj.update(fields, task="QID", decoder_input="", decoder_output="q <answer> a")
        for parse in parsers:
            with pytest.raises(MalformedRecord, match=f"^line 2: {re.escape(reason)}$"):
                parse(json.dumps(obj), 2)

    def test_gold_answers_non_empty(self):
        self.refused((parse_example, parse_header, parse_gold),
                     "example 'e': gold_answers must be a non-empty list of strings, not ()",
                     gold_answers=[])

    def test_none_sentinel_rejected_as_gold(self):
        self.refused((parse_example, parse_header, parse_gold),
                     "example 'e': gold answer collides with None sentinel",
                     gold_answers=[" None "])

    @pytest.mark.parametrize("blank", ["", " ", "\t\n", "\u3000"])
    def test_blank_gold_answer_rejected(self, blank):
        self.refused((parse_example, parse_header, parse_gold),
                     f"example 'e': gold answer {blank!r} is blank", gold_answers=["a", blank])

    def test_ocr_text_without_boxes_rejected(self):
        # crop keeps a window's OCR text through its boxes; a header reads neither
        self.refused((parse_example,), "example 'e': ocr_text without ocr_boxes",
                     ocr_text="some text", ocr_boxes=None)
        obj = example_dict(QAExample(example_id="e", image=make_image(), question="q",
                                     gold_answers=("a",), ocr_text="some text"))
        assert parse_header(json.dumps(obj)).ocr_text == ""
        del obj["ocr_boxes"]
        with pytest.raises(MalformedRecord, match="^line 2: example 'e': ocr_text without"):
            parse_example(json.dumps(obj), 2)

    def test_ocr_box_out_of_bounds(self):
        self.refused((parse_example,), "example 'e': OCR box 't' outside image bounds",
                     image=make_image(h=100, w=100), ocr_boxes=[["t", 0, 0, 150, 20]])

    def test_decoder_input_empty_iff_input_free_task(self):
        with pytest.raises(ValueError):
            make_record(task="QRA", decoder_input="q")
        with pytest.raises(ValueError):
            make_record(task="APR", decoder_input="")

    def test_crop_within_extent(self):
        self.refused((parse_example, parse_header, parse_record),
                     "image 'img1': crop end 500 exceeds extent 400",
                     image=make_image(h=400, w=400, crop=Crop("height", 100, 500)))

    def test_crop_larger_than_short_edge(self):
        self.refused((parse_example, parse_header, parse_record),
                     "image 'img1': crop larger than short edge",
                     image=make_image(h=1000, w=400, crop=Crop("height", 0, 600)))


def test_example_round_trip():
    ex = QAExample(
        example_id="e1",
        image=make_image(h=1000, w=400, crop=Crop("height", 0, 400)),
        question="what?",
        gold_answers=("a", "b"),
        ocr_text="x y",
        ocr_boxes=(OcrBox("x", 0, 0, 10, 10), OcrBox("y", 0, 20, 10, 30)),
        structured_table=(("h1", "h2"), ("1", "2")),
    )
    assert parse_example(serialize_example(ex)) == ex


# Within one pipeline run, later stages use the records an earlier stage
# wrote instead of parsing its file again. That is only sound while parsing
# a serialized record gives back the record itself. Each line also keeps
# the bytes json.dumps gives the record's dict, written out here field by
# field, with the options of the stage files.

def dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def image_dict(image):
    crop = None if image.crop is None else \
        {"axis": image.crop.axis, "start": image.crop.start, "end": image.crop.end}
    return {"id": image.id, "height": image.height, "width": image.width, "crop": crop,
            "source_uri": image.source_uri}


def example_dict(ex):
    return {"example_id": ex.example_id, "image": image_dict(ex.image), "question": ex.question,
            "gold_answers": list(ex.gold_answers), "ocr_text": ex.ocr_text,
            "ocr_boxes": None if ex.ocr_boxes is None else
            [[b.text, b.x0, b.y0, b.x1, b.y1] for b in ex.ocr_boxes],
            "structured_table": None if ex.structured_table is None else
            [list(row) for row in ex.structured_table]}


def rationale_dict(r):
    return {"kind": r.kind, "evidence": r.evidence, "table": [list(row) for row in r.table],
            "program_source": r.program_source, "flagged": r.flagged}


def scores_dict(s):
    return {"logp_with": s.logp_with, "logp_without": s.logp_without, "greedy": s.greedy}


def same(parsed, record):
    """Equal field for field, by repr: NaN equals NaN, -0.0 differs from 0.0 and 1 from 1.0."""
    assert repr(parsed) == repr(record)


# text that JSON escapes, or must leave as it is: separators, quotes,
# backslashes, control characters and non-ASCII
any_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",))
                   | st.sampled_from(',:{}[]"\\/\n\r\t\b\f\x00\x1f\x7f é€😀'), max_size=20)


@st.composite
def images(draw):
    height, width = draw(st.integers(1, 3000)), draw(st.integers(1, 3000))
    crop = None
    if draw(st.booleans()):
        axis = draw(st.sampled_from(["height", "width"]))
        extent = height if axis == "height" else width
        start = draw(st.integers(0, extent - 1))
        end = draw(st.integers(start + 1, min(extent, start + min(height, width))))
        crop = Crop(axis, start, end)
    return ImageRef(id=draw(any_text), height=height, width=width, crop=crop,
                    source_uri=draw(any_text))


@st.composite
def boxes_within(draw, image):
    x0, x1 = sorted(draw(st.lists(st.integers(0, image.width), min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(st.integers(0, image.height), min_size=2, max_size=2)))
    return OcrBox(draw(any_text), x0, y0, x1, y1)


tables = st.lists(st.lists(any_text, max_size=4).map(tuple), max_size=4).map(tuple)
# gold answers as a parser takes them: neither blank nor the None sentinel
gold_answers = st.lists(any_text.filter(lambda a: a.strip() and not is_none_answer(a)),
                        min_size=1, max_size=3).map(tuple)


@st.composite
def examples(draw):
    image = draw(images())
    boxes = draw(st.none() | st.lists(boxes_within(image), max_size=4).map(tuple))
    return QAExample(
        example_id=draw(any_text),
        image=image,
        question=draw(any_text),
        gold_answers=draw(gold_answers),
        ocr_text="" if boxes is None else draw(any_text),   # no OCR text without boxes
        ocr_boxes=boxes,
        structured_table=draw(st.none() | tables),
    )


# a rationale with nothing to predict is flagged, as a line must hold it
rationales = (st.builds(Rationale.text, any_text)
              | st.builds(Rationale.program, tables, any_text, flagged=st.booleans())).map(
    lambda r: r if (r.evidence or r.program_source).strip() else
    dataclasses.replace(r, flagged=True))
# any float or int, the extremes drawn often
scores = (st.sampled_from([sys.float_info.max, -sys.float_info.max, math.inf, -math.inf,
                           math.nan, 5e-324, -5e-324, -0.0, 0])
          | st.floats() | st.integers(-2 ** 70, 2 ** 70))


@st.composite
def verdicts(draw):
    category = draw(st.sampled_from(CATEGORIES))
    answer = "None" if category == "irrelevant" else \
        draw(any_text.filter(lambda a: not is_none_answer(a)))
    return Verdict(example_id=draw(any_text), category=category, effective_answer=answer,
                   scores=VerifierScores(draw(scores), draw(scores), draw(any_text)))


@st.composite
def task_records(draw):
    task = draw(st.sampled_from(sorted(TASK_NAMES.values())))
    input_free = task in ("QRA", "QRACI", "QID", "ANS_ONLY")
    return TaskRecord(task=task, example_id=draw(any_text), image=draw(images()),
                      decoder_input="" if input_free else draw(any_text.filter(bool)),
                      decoder_output=draw(any_text.filter(bool)))


class TestParseInvertsSerialize:
    @given(examples())
    def test_example(self, example):
        line = serialize_example(example)
        assert line == dumps(example_dict(example))
        same(parse_example(line), example)

    @given(task_records())
    def test_task_line(self, record):
        line = serialize_record(record)
        assert line == dumps({"task": record.task, "example_id": record.example_id,
                              "image": image_dict(record.image),
                              "decoder_input": record.decoder_input,
                              "decoder_output": record.decoder_output})
        same(parse_record(line), record)

    @given(any_text, rationales)
    def test_rationale_line(self, example_id, rationale):
        line = serialize_rationale(example_id, rationale)
        assert line == dumps({"example_id": example_id, "rationale": rationale_dict(rationale)})
        same(parse_rationale(line), (example_id, rationale))

    @given(any_text, rationales, st.sampled_from(["tool", "student"]))
    def test_rationale_line_with_an_origin_parses(self, example_id, rationale, origin):
        # earlier versions wrote each rationale's "origin"; a parser ignores it
        line = dumps({"example_id": example_id,
                      "rationale": {**rationale_dict(rationale), "origin": origin}})
        same(parse_rationale(line), (example_id, rationale))

    @given(verdicts())
    def test_verdict_line(self, verdict):
        line = serialize_categorized(verdict)
        assert line == dumps({"example_id": verdict.example_id, "category": verdict.category,
                              "effective_answer": verdict.effective_answer,
                              "scores": scores_dict(verdict.scores)})
        same(parse_categorized(line), verdict)

    @given(verdicts())
    def test_scores_line(self, verdict):
        line = serialize_scores(verdict.example_id, verdict.scores)
        assert line == dumps({"example_id": verdict.example_id,
                              "scores": scores_dict(verdict.scores)})
        same(parse_scores(line), (verdict.example_id, verdict.scores))

    @given(st.recursive(st.none() | st.booleans() | scores | any_text,
                        lambda inner: st.lists(inner, max_size=3)
                        | st.lists(inner, max_size=3).map(tuple)
                        | st.dictionaries(any_text, inner, max_size=3), max_leaves=12))
    def test_any_value(self, value):
        assert _dumps(value) == PYTHON_DUMPS(value) == dumps(value)


@st.composite
def pages(draw):
    """A dataset example as crop reads it: an uncropped image, and OCR boxes
    whenever there is OCR text."""
    image = ImageRef(id=draw(any_text), height=draw(st.integers(20, 400)),
                     width=draw(st.integers(20, 400)), source_uri=draw(any_text))
    boxes = draw(st.lists(boxes_within(image), max_size=6).map(tuple))
    return QAExample(
        example_id=draw(any_text), image=image, question=draw(any_text),
        gold_answers=draw(gold_answers), ocr_text=" ".join(b.text for b in boxes),
        ocr_boxes=boxes or draw(st.sampled_from([None, ()])),
        structured_table=draw(st.none() | tables))


@pytest.mark.parametrize("mode", [VERBATIM, FULL_COVERAGE])
@given(page=pages())
def test_every_crop_of_a_parsed_page_parses_back_unchanged(mode, page):
    """`apply_plan` builds its crops without checking them: every crop it
    makes from a parsed page passes each check a crop line's parse makes,
    and parses back to itself."""
    parent = parse_example(serialize_example(page))
    children = apply_plan(parent, plan_crops(parent.image.height, parent.image.width, mode))
    assert children
    for child in children:
        same(parse_example(serialize_example(child)), child)


# the encoder built where the C one is missing
with unittest.mock.patch.object(json.encoder, "c_make_encoder", None):
    PYTHON_DUMPS = _make_dumps()


def test_categorized_line_in_the_older_full_format_parses():
    line = ('{"example_id":"doc00#c1","question":"Who?","image":{"id":"doc00","height":1000,'
            '"width":400,"crop":{"axis":"height","start":200,"end":600},"source_uri":""},'
            '"rationale":{"kind":"text_evidence","evidence":"CEO: Maria Santos","table":[],'
            '"program_source":"","origin":"tool","flagged":false},"category":"useful",'
            '"effective_answer":"Maria Santos","scores":{"logp_with":-0.25,'
            '"logp_without":-3.5,"greedy":"Maria Santos"}}')
    assert parse_categorized(line) == Verdict(
        "doc00#c1", "useful", "Maria Santos", VerifierScores(-0.25, -3.5, "Maria Santos"))


@pytest.mark.parametrize("line", [
    "not json",
    '{"example_id":"e","category":"useful","effective_answer":"a"}',
    '{"example_id":"e","category":"irrelevant","effective_answer":"a",'
    '"scores":{"logp_with":0,"logp_without":0,"greedy":"a"}}',
    '{"example_id":"e","category":"odd","effective_answer":"a",'
    '"scores":{"logp_with":0,"logp_without":0,"greedy":"a"}}',
])
def test_malformed_verdict_line(line):
    with pytest.raises(MalformedRecord):
        parse_categorized(line)


@pytest.mark.parametrize("line", [
    "not json", "[]", '{"example_id":"e"}', '{"example_id":"e","scores":1}',
    '{"scores":{"logp_with":0,"logp_without":0,"greedy":"a"}}',
    '{"example_id":"e","scores":{"logp_with":0,"greedy":"a"}}',
])
def test_malformed_scores_line(line):
    with pytest.raises(MalformedRecord):
        parse_scores(line, 3)


# a table that is not a list of lists of strings, as a dataset line, a
# rationale line and a plot-to-table reply may hold it
BAD_TABLES = [5, "xy", ["ab"], [["a", 1]], [["a"], None], {"a": ["b"]}]


@pytest.mark.parametrize("field,value,reason", [
    ("ocr_boxes", [["t", 0, 0, 1]], ""), ("ocr_boxes", [5], ""), ("image", [], ""),
    *[("structured_table", table, f"example 'e': structured_table {table!r} is not a list "
                                  "of lists of strings") for table in BAD_TABLES]])
def test_malformed_example_line(field, value, reason):
    obj = example_dict(QAExample(example_id="e", image=make_image(), question="q",
                                 gold_answers=("a",)))
    obj[field] = value
    with pytest.raises(MalformedRecord, match=f"^line 6: {re.escape(reason)}"):
        parse_example(json.dumps(obj), 6)


@pytest.mark.parametrize("field,value,reason", [
    ("evidence", 5, "evidence 5 is not a string"),
    ("evidence", None, "evidence None is not a string"),
    ("program_source", ["Add(1, 2)"], "program_source ['Add(1, 2)'] is not a string"),
    ("flagged", "no", "flagged 'no' is not a bool"),
    ("flagged", 0, "flagged 0 is not a bool"),
    ("flagged", None, "flagged None is not a bool"),
    ("kind", "tool", "bad rationale kind 'tool'"),
    *[("table", table, f"table {table!r} is not a list of lists of strings")
      for table in BAD_TABLES]])
@pytest.mark.parametrize("rationale", [Rationale.text("t"),
                                       Rationale.program((("h",),), "", flagged=True)],
                         ids=["text", "program"])
def test_malformed_rationale_line(rationale, field, value, reason):
    obj = {"example_id": "e", "rationale": rationale_dict(rationale)}
    parse_rationale(json.dumps(obj), 4)
    obj["rationale"][field] = value
    with pytest.raises(MalformedRecord) as exc:
        parse_rationale(json.dumps(obj), 4)
    assert str(exc.value) == f"line 4: {reason}"


@pytest.mark.parametrize("field,blank", [("evidence", ""), ("evidence", " \n"),
                                         ("program_source", ""), ("program_source", "\t")])
def test_an_unflagged_rationale_with_nothing_to_predict_is_refused(field, blank):
    """Blank evidence, or a blank program, is a flagged rationale's, as
    `generate_rationale` makes it; unflagged, a line holding it is refused."""
    rationale = Rationale.text("t") if field == "evidence" else \
        Rationale.program((("h",),), "Find(1)")
    obj = {"example_id": "e", "rationale": {**rationale_dict(rationale), field: blank}}
    with pytest.raises(MalformedRecord, match=f"^line 4: unflagged {rationale.kind} rationale "
                                              "with nothing to predict$"):
        parse_rationale(json.dumps(obj), 4)
    obj["rationale"]["flagged"] = True
    assert parse_rationale(json.dumps(obj), 4) == ("e", dataclasses.replace(
        rationale, flagged=True, **{field: blank}))


def valid_lines():
    """(parser, a line it parses, as an object, and a field it needs) of every line parser."""
    example = example_dict(QAExample(example_id="e", image=make_image(), question="q",
                                     gold_answers=("a",)))
    scores = {"example_id": "e", "scores": {"logp_with": 0, "logp_without": 0, "greedy": "a"}}
    return [
        (parse_example, example, "question"),
        (parse_gold, example, "gold_answers"),
        (parse_header, example, "image"),
        (parse_categorized, {**scores, "category": "useful", "effective_answer": "a"},
         "category"),
        (parse_scores, scores, "scores"),
        (parse_record, json.loads(serialize_record(make_record())), "decoder_output"),
        (parse_hypothesis, {"example_id": "e", "decoded": "q <answer> a", "prob": 0.5},
         "decoded"),
        (parse_prediction, {"example_id": "e", "answer": "a"}, "answer"),
        (parse_rationale, json.loads(serialize_rationale("e", Rationale.text("t"))),
         "rationale"),
    ]


def malformed_lines():
    """A case for each way a line can be malformed and each line parser, as
    (parser, a line it parses, as an object, a field it needs, the way), and
    one for an example whose OCR box has two items, which `parse_example`
    alone reads."""
    ways = ["missing-field", "not-json", "list", "number", "null", "string", "lone-surrogate"]
    cases = [(parse, obj, field, bad) for bad in ways for parse, obj, field in valid_lines()]
    example = valid_lines()[0][1]
    cases.append((parse_example, {**example, "ocr_boxes": [["t", 0]]}, "ocr_boxes",
                  "short-ocr-box"))
    return [pytest.param(*case, id=f"{case[3]}-{case[0].__name__}--") for case in cases]


@pytest.mark.parametrize("parse,obj,field,bad", malformed_lines())
def test_every_parser_words_a_malformed_line_alike(parse, obj, field, bad):
    if bad != "short-ocr-box":
        parse(json.dumps(obj), 3)
    line, reason = {
        "missing-field": (json.dumps({k: v for k, v in obj.items() if k != field}),
                          f"missing field {field!r}"),
        "not-json": (json.dumps(obj)[:-1], "not JSON ("),
        "list": (json.dumps(list(obj.values())), "not a JSON object"),
        "number": ("5", "not a JSON object"),
        "null": ("null", "not a JSON object"),
        "string": (json.dumps(field), "not a JSON object"),
        # json.dumps escapes it as \ud800
        "lone-surrogate": (json.dumps({**obj, field: "\ud800"}), "lone surrogate \\ud800"),
        "short-ocr-box": (json.dumps(obj), "list index out of range"),
    }[bad]
    with pytest.raises(MalformedRecord) as exc:
        parse(line, 3)
    assert str(exc.value).startswith(f"line 3: {reason}")
    assert exc.value.reason.startswith(reason) and exc.value.line_no == 3


@given(images())
def test_image_json_is_the_dumped_image_dict(image):
    assert rdistill.records._image_json(image) == _dumps(image.to_json())


@pytest.mark.parametrize("image,bad", [
    ({"height": True}, "height and width must be ints, not True and 9"),
    ({"width": 100.0}, "height and width must be ints, not 9 and 100.0"),
    ({"crop": {"axis": "height", "start": 0, "end": 5.0}},
     "crop start and end must be ints, not 0 and 5.0"),
    ({"id": 5}, "image 5: id and source_uri must be strings"),
    ({"source_uri": None}, "image 'i': id and source_uri must be strings"),
], ids=["bool-height", "float-width", "float-crop-end", "int-id", "null-source-uri"])
@pytest.mark.parametrize("parse", [parse_example, parse_header, parse_record],
                         ids=lambda p: p.__name__)
def test_an_image_of_other_types_is_refused(parse, image, bad):
    """Geometry is whole pixels and names are strings: what `_image_json`
    writes as `_dumps` would."""
    obj = {"task": "QID", "example_id": "e", "question": "q", "gold_answers": ["a"],
           "decoder_input": "", "decoder_output": "q <answer> a",
           "image": {"id": "i", "height": 9, "width": 9, "crop": None, "source_uri": ""}}
    parse(json.dumps(obj), 4)
    obj["image"].update(image)
    with pytest.raises(MalformedRecord, match=f"^line 4: .*{re.escape(bad)}"):
        parse(json.dumps(obj), 4)


@pytest.mark.parametrize("box,bad", [
    ([5, 10, 20, 390, 50], "example 'e': OCR box text 5 is not a string"),
    ([None, 0, 0, 1, 1], "example 'e': OCR box text None is not a string"),
    (["t", True, 0, 1, 1], "example 'e': OCR box coordinates must be ints, not True, 0, 1 and 1"),
    (["t", 0, 0, 20.5, 1], "example 'e': OCR box coordinates must be ints, not 0, 0, 20.5 and 1"),
    (["t", 0, "0", 1, 1], "example 'e': OCR box coordinates must be ints, not 0, '0', 1 and 1"),
], ids=["int-text", "null-text", "bool-x0", "float-x1", "string-y0"])
def test_an_ocr_box_of_other_types_is_refused(box, bad):
    """A box's text is a string and its coordinates whole pixels, as an
    image's geometry is; a header leaves the boxes unread."""
    obj = example_dict(QAExample(example_id="e", image=make_image(), question="q",
                                 gold_answers=("a",)))
    obj["ocr_boxes"] = [["t", 0, 0, 1, 1]]
    parse_example(json.dumps(obj), 4)
    obj["ocr_boxes"] = [["t", 0, 0, 1, 1], box]
    with pytest.raises(MalformedRecord, match=f"^line 4: {re.escape(bad)}$"):
        parse_example(json.dumps(obj), 4)
    assert parse_header(json.dumps(obj), 4).ocr_boxes is None


@pytest.mark.parametrize("value", [True, "x", None, [0.5], {"v": 1}],
                         ids=["bool", "string", "null", "list", "object"])
@pytest.mark.parametrize("field", ["logp_with", "logp_without"])
@pytest.mark.parametrize("parse", [parse_scores, parse_categorized], ids=lambda p: p.__name__)
def test_a_log_probability_that_is_not_a_number_is_refused(parse, field, value):
    """A log-probability is a JSON int or float, NaN and the infinities
    included, as `_float_json` writes them."""
    obj = {"example_id": "e", "category": "useful", "effective_answer": "a",
           "scores": {"logp_with": -1.0, "logp_without": -2, "greedy": "a"}}
    for ok in (math.nan, math.inf, -math.inf, -0.5, 3):
        obj["scores"][field] = ok
        parsed = parse(json.dumps(obj), 5)
        same(getattr(parsed[1] if parse is parse_scores else parsed.scores, field), ok)
    obj["scores"][field] = value
    with pytest.raises(MalformedRecord,
                       match=f"^line 5: {field} {re.escape(repr(value))} is not a number$"):
        parse(json.dumps(obj), 5)


@pytest.mark.parametrize("parse,obj", [pytest.param(parse, obj, id=parse.__name__)
                                       for parse, obj, _ in valid_lines()])
@pytest.mark.parametrize("example_id", [5, None, ["e"]], ids=["int", "null", "list"])
def test_every_parser_words_a_bad_example_id_alike(parse, obj, example_id):
    parse(json.dumps(obj), 3)
    with pytest.raises(MalformedRecord,
                       match=f"^line 3: example_id {re.escape(repr(example_id))} is not a string$"):
        parse(json.dumps({**obj, "example_id": example_id}), 3)


@pytest.mark.parametrize("record", [
    Crop("height", 0, 1), make_image(), OcrBox("t", 0, 0, 1, 1), Rationale.text("t"),
    VerifierScores(-1.0, -2.0, "a"), Verdict("e", "useful", "a", VerifierScores(0.0, 0.0, "a")),
    make_record(), ScoredHypothesis("q <answer> a", 0.5),
    QAExample(example_id="e", image=make_image(), question="q", gold_answers=("a",)),
], ids=lambda r: type(r).__name__)
def test_records_are_slotted(record):
    assert not hasattr(record, "__dict__")


def test_only_a_task_record_checks_itself():
    """Records are plain data, checked where they enter, by a parser or an
    HTTP client; a task record guards what the task files hold."""
    for cls in (Crop, ImageRef, OcrBox, QAExample, Rationale, VerifierScores, Verdict,
                ScoredHypothesis):
        assert not hasattr(cls, "__post_init__"), cls
    assert hasattr(TaskRecord, "__post_init__")


def test_lines_are_written_whole_in_order(tmp_path):
    path = tmp_path / "lines.jsonl"
    lines = [f'{{"i":{i},"s":"{"é" * (i % 7)}"}}' for i in range(5000)]
    write_lines(str(path), iter(lines))
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")
    write_lines(str(path), [])
    assert path.read_bytes() == b""


class TestLoneSurrogates:
    """A line that escapes a lone surrogate is valid JSON but holds no UTF-8
    text: it is a malformed record, named by its line."""

    @pytest.mark.parametrize("text", ["\ud800", "a\udfffb", "\udc00\ud800", "x\ud83d"])
    def test_example_line(self, text):
        ex = QAExample(example_id="e", image=make_image(), question="q", gold_answers=("a",),
                       ocr_boxes=(OcrBox("t", 0, 0, 1, 1),))
        for key in ("question", "gold_answers", "ocr_boxes", "example_id"):
            obj = example_dict(ex)
            obj[key] = {"question": text, "example_id": text, "gold_answers": [text],
                        "ocr_boxes": [[text, 0, 0, 1, 1]]}[key]
            for parse in (parse_example, parse_header):   # also in a field the header skips
                with pytest.raises(MalformedRecord, match="line 7: .*surrogate"):
                    parse(json.dumps(obj), 7)

    @pytest.mark.parametrize("parse,obj", [
        (parse_hypothesis, {"example_id": "e1", "decoded": "q <answer> \ud800", "prob": 0.5}),
        (parse_prediction, {"example_id": "e1", "answer": "\udfff"}),
        (parse_record, {"task": "QRA", "example_id": "e\ud800", "image": image_dict(make_image()),
                        "decoder_input": "", "decoder_output": "q"}),
        (parse_categorized, {"example_id": "e", "category": "useful", "effective_answer": "a",
                             "scores": {"logp_with": 0, "logp_without": 0, "greedy": "\ud800"}}),
        (parse_scores, {"example_id": "e\udc00", "scores": {"logp_with": 0, "logp_without": 0,
                                                             "greedy": "a"}}),
    ], ids=lambda p: getattr(p, "__name__", ""))
    def test_other_lines(self, parse, obj):
        with pytest.raises(MalformedRecord, match="line 4: .*surrogate"):
            parse(json.dumps(obj), 4)

    def test_a_surrogate_pair_is_text(self):
        ex = QAExample(example_id="e", image=make_image(), question="q \U0001F600",
                       gold_answers=("\U0001F600",))
        line = json.dumps(example_dict(ex))
        assert "\\ud83d\\ude00" in line
        assert parse_example(line) == ex
        assert parse_hypothesis(json.dumps({"example_id": "e", "decoded": "\U0001F600",
                                            "prob": 1}))[1].decoded == "\U0001F600"


# JSON values with what a line can spell in more than one way: lone and
# paired surrogates, non-finite floats, -0.0 and ints past 64 bits
json_values = st.recursive(
    st.none() | st.booleans() | scores | st.integers(-2 ** 200, 2 ** 200)
    | any_text | st.sampled_from(["\ud800", "a\udfffb", "\ud83d\ude00", "\ud83d", "\ufeff"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(any_text | st.sampled_from(["\udc00", "k"]), inner, max_size=3),
    max_leaves=10)
blanks = st.text(alphabet=" \t\r\n", max_size=3)


@st.composite
def json_lines(draw):
    """A line as a file may hold it: JSON text in UTF-8, with \\u escapes or
    without, or that text padded, after a BOM, followed by more, cut short,
    or any text at all."""
    value = draw(json_values)
    line = json.dumps(value, ensure_ascii=draw(st.booleans()))
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:      # a raw lone surrogate: no file line holds one
        line = json.dumps(value)
    form = draw(st.sampled_from(["whole", "padded", "bom", "extra", "cut", "any"]))
    if form == "padded":
        line = draw(blanks) + line + draw(blanks)
    elif form == "bom":
        line = "\ufeff" + line
    elif form == "extra":
        line += draw(blanks) + draw(st.sampled_from(["x", "1", "{}", ",", "]", '"a"', "NaN"]))
    elif form == "cut":
        line = line[:draw(st.integers(0, max(len(line) - 1, 0)))]
    elif form == "any":
        line = draw(any_text)
    return line


def outcome(loads, line):
    """What `loads(line)` gives: its value's repr, or its exception's type and message."""
    try:
        return "value", repr(loads(line))
    except Exception as e:
        return type(e), str(e)


def utf8_text(obj) -> bool:
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
        return True
    except UnicodeEncodeError:
        return False


class TestLoads:
    """`_loads` is json.loads, with the C scanner or where it is missing,
    except that it refuses a value holding a lone surrogate."""

    @pytest.mark.parametrize("scanner", ["c", "python"])
    @given(line=json_lines())
    @example(line="NaN")
    @example(line="-Infinity")
    @example(line="1" * 4301)               # past the int digit limit
    @example(line='"\\ud800"')
    @example(line='"\\ud83d\\ude00"')        # a surrogate pair, escaped
    @example(line='"\\u12"')
    @example(line="\ufeff{}")
    @example(line=" {} ")
    @example(line="{} x")
    @example(line="")
    def test_equals_json_loads(self, scanner, line):
        want = outcome(json.loads, line)
        scan = rdistill.records._scan if scanner == "c" else None
        with unittest.mock.patch.object(rdistill.records, "_scan", scan):
            got = outcome(_loads, line)
        if want[0] == "value" and not utf8_text(json.loads(line)):
            assert got[0] is ValueError and got[1].startswith("lone surrogate"), got
        else:
            assert got == want

    def test_the_c_scanner_is_used(self):
        assert rdistill.records._scan is not None or json.scanner.c_make_scanner is None


# what `parse_example` and `parse_gold` must refuse in an example_id or gold_answers
bad_ids = st.integers() | st.none() | st.lists(any_text, max_size=1)
bad_answers = (st.none() | st.integers() | any_text | st.just([]) | st.just(["None", "a"])
               | st.lists(st.integers() | st.none() | st.lists(any_text, max_size=1),
                          min_size=1, max_size=2).map(lambda a: ["a"] + a))


class TestParseGold:
    """`parse_gold` is the example_id and gold answers of `parse_example`."""

    @given(examples(), st.data())
    def test_is_parse_example_on_the_fields_it_reads(self, ex, data):
        obj = example_dict(ex)
        field = data.draw(st.sampled_from(["none", "example_id", "gold_answers"]))
        if field != "none":
            obj[field] = data.draw(bad_ids | any_text if field == "example_id"
                                   else bad_answers | st.lists(any_text, min_size=1))
            if data.draw(st.booleans()):
                del obj[field]
        line = json.dumps(obj)
        try:
            want = parse_example(line, 9)
        except MalformedRecord as e:
            assert str(e).startswith("line 9: ")
            with pytest.raises(MalformedRecord, match="^line 9: "):
                parse_gold(line, 9)
        else:
            same(parse_gold(line, 9), (want.example_id, want.gold_answers))

    @given(examples(), st.sampled_from([("image", None), ("image", {"id": "i"}),
                                        ("image", {"id": "i", "height": 0, "width": 1}),
                                        ("question", 5), ("ocr_boxes", [[1]]),
                                        ("ocr_boxes", [["t", 0, 0, 10 ** 6, 1]]),
                                        ("structured_table", 5)]))
    def test_does_not_read_the_other_fields(self, ex, bad):
        obj = example_dict(ex)
        obj[bad[0]] = bad[1]
        line = json.dumps(obj)
        same(parse_gold(line), (ex.example_id, ex.gold_answers))

    @pytest.mark.parametrize("answers", [[5], "abc", [], ["a", None], None, {"a": 1}])
    def test_gold_answers_are_a_non_empty_list_of_strings(self, answers):
        obj = example_dict(QAExample(example_id="e", image=make_image(), question="q",
                                     gold_answers=("a",)))
        obj["gold_answers"] = answers
        for parse in (parse_example, parse_gold):
            with pytest.raises(MalformedRecord, match="^line 3: "):
                parse(json.dumps(obj), 3)

    @pytest.mark.parametrize("line", ["[]", "5", "null", '"e"'])
    def test_a_line_that_is_not_an_object(self, line):
        for parse in (parse_example, parse_gold):
            with pytest.raises(MalformedRecord, match="^line 2: "):
                parse(line, 2)


def header(ex):
    """What `parse_header` gives for `ex`: its id, image, question and gold answers."""
    return QAExample(ex.example_id, ex.image, ex.question, ex.gold_answers)


# an image value: valid, of the wrong type or shape, or with a bad geometry or crop
any_images = (images().map(image_dict) | st.none() | st.integers() | any_text | st.just([])
              | st.just({"id": "i"}) | st.just({"id": "i", "height": "9", "width": 9})
              | st.fixed_dictionaries({"id": any_text, "height": st.integers(-2, 9),
                                       "width": st.integers(-2, 9)})
              | st.fixed_dictionaries({
                  "id": st.just("i"), "height": st.just(9), "width": st.just(5),
                  "crop": st.fixed_dictionaries({"axis": st.sampled_from(["height", "depth"]),
                                                 "start": st.integers(-1, 9),
                                                 "end": st.integers(-1, 10)})
                  | st.just([]) | st.just(["height", 0, 1])}))
any_json = st.none() | st.integers() | any_text | st.lists(any_text, max_size=2)


class TestParseHeader:
    """`parse_header` is `parse_example` without the OCR text, boxes and table."""

    @given(examples(), st.data())
    def test_is_parse_example_on_the_fields_it_reads(self, ex, data):
        obj = example_dict(ex)
        field = data.draw(st.sampled_from(["none", "example_id", "image", "question",
                                           "gold_answers"]))
        if field != "none":
            obj[field] = data.draw({"example_id": bad_ids | any_text, "image": any_images,
                                    "question": any_json,
                                    "gold_answers": bad_answers | st.lists(any_text, min_size=1),
                                    }[field])
            if field == "image":
                # boxes within the old image may lie outside it; OCR text needs boxes
                obj.update(ocr_text="", ocr_boxes=None)
            if data.draw(st.booleans()):
                del obj[field]
        line = json.dumps(obj)
        try:
            want = parse_example(line, 9)
        except MalformedRecord as e:
            assert str(e).startswith("line 9: ")
            with pytest.raises(MalformedRecord) as exc:
                parse_header(line, 9)
            assert str(exc.value) == str(e)
        else:
            same(parse_header(line, 9), header(want))

    @given(examples(), st.sampled_from([("ocr_boxes", 5), ("ocr_boxes", [[1]]),
                                        ("ocr_boxes", [["t", 0, 0, 10 ** 6, 1]]),
                                        ("ocr_boxes", [["t", -1, 0, 1, 1]]),
                                        ("ocr_text", 5), ("ocr_text", None),
                                        ("structured_table", 5), ("structured_table", [1]),
                                        ("structured_table", [["a", 1]])]))
    def test_does_not_read_the_ocr_fields(self, ex, bad):
        obj = example_dict(ex)
        obj[bad[0]] = bad[1]
        same(parse_header(json.dumps(obj)), header(ex))

    @given(examples())
    def test_leaves_the_ocr_fields_empty(self, ex):
        parsed = parse_header(serialize_example(ex))
        assert (parsed.ocr_text, parsed.ocr_boxes, parsed.structured_table) == ("", None, None)
        same(parsed, header(ex))


# text with what JSON escapes or leaves as it is, and the codec's separators
writer_text = any_text | st.sampled_from(["<s>", "a <s> b", "<answer>", "<program>", '"',
                                          "\\", "\x00\x1f", "é€😀"])
answers = writer_text.filter(lambda a: not is_none_answer(a))
# a table as a record may hold it: tuples or lists, of strings or of other JSON values
writer_tables = (st.none() | tables
                 | st.lists(st.lists(any_text | st.integers() | scores | st.none(), max_size=3),
                            max_size=3))


@st.composite
def writer_examples(draw):
    image = draw(images())
    gold = draw(st.lists(answers, min_size=1, max_size=3))
    return QAExample(
        example_id=draw(writer_text), image=image, question=draw(writer_text),
        gold_answers=tuple(gold) if draw(st.booleans()) else gold,
        ocr_text=draw(writer_text),
        ocr_boxes=draw(st.none() | st.lists(boxes_within(image), max_size=4).map(tuple)),
        structured_table=draw(writer_tables))


def any_scores():
    return st.builds(VerifierScores, scores | st.booleans(), scores | st.booleans(),
                     writer_text)


@st.composite
def any_verdicts(draw):
    category = draw(st.sampled_from(CATEGORIES))
    answer = "None" if category == "irrelevant" else draw(answers)
    return Verdict(draw(writer_text), category, answer, draw(any_scores()))


class TestWritersAreTheDumpedRecords:
    """Each stage-line writer puts its line together without building the
    record's dict, and writes exactly what `_dumps` writes for that dict."""

    @given(writer_examples())
    @example(QAExample("e", make_image(), "q <s> \"x\"", ["a"], "\x00", None, None))
    def test_example(self, ex):
        assert serialize_example(ex) == _dumps(ex.to_json())

    @given(any_verdicts())
    @example(Verdict("e", "useful", "a", VerifierScores(math.nan, -math.inf, "a")))
    @example(Verdict("e", "useful", "a", VerifierScores(-0.0, 1, "")))
    def test_verdict(self, verdict):
        assert serialize_categorized(verdict) == _dumps({
            "example_id": verdict.example_id, "category": verdict.category,
            "effective_answer": verdict.effective_answer, "scores": verdict.scores.to_json()})

    @given(writer_text, any_scores())
    @example("e", VerifierScores(math.inf, math.nan, "<s>"))
    @example("e", VerifierScores(True, 2 ** 70, "\u2028"))
    def test_scores(self, example_id, s):
        assert serialize_scores(example_id, s) == \
            _dumps({"example_id": example_id, "scores": s.to_json()})


@pytest.mark.parametrize("greedy", [5, 2.5, None, True, ["a"], {"a": 1}],
                         ids=["int", "float", "null", "bool", "list", "object"])
def test_a_greedy_answer_that_is_not_a_string_is_refused(greedy):
    s = {"logp_with": -1.0, "logp_without": -2.0, "greedy": greedy}
    for parse, obj in ((parse_scores, {"example_id": "e", "scores": s}),
                       (parse_categorized, {"example_id": "e", "category": "irrelevant",
                                            "effective_answer": "None", "scores": s})):
        parse(json.dumps(dict(obj, scores=dict(s, greedy="a"))), 5)
        with pytest.raises(MalformedRecord, match=r"^line 5: greedy .* is not a string$"):
            parse(json.dumps(obj), 5)


@pytest.mark.parametrize("value", [5, 2.5, None, True, ["q"], {"q": 1}],
                         ids=["int", "float", "null", "bool", "list", "object"])
@pytest.mark.parametrize("field", ["question", "ocr_text"])
def test_a_question_or_ocr_text_that_is_not_a_string_is_refused(field, value):
    obj = example_dict(QAExample(example_id="e", image=make_image(), question="q",
                                 gold_answers=("a",)))
    parse_example(json.dumps(obj), 5)
    obj[field] = value
    for parse in (parse_example, parse_header) if field == "question" else (parse_example,):
        with pytest.raises(MalformedRecord,
                           match=f"^line 5: example 'e': {field} .* is not a string$"):
            parse(json.dumps(obj), 5)
    if field == "ocr_text":   # a header leaves it unread
        assert parse_header(json.dumps(obj), 5).ocr_text == ""


@given(writer_tables.filter(lambda t: t is not None)
       | st.lists(st.lists(any_text, max_size=3).map(tuple), max_size=3).map(tuple)
       | st.lists(st.lists(any_text, max_size=3), max_size=3).map(tuple))
def test_a_program_rationale_keeps_a_tuple_table(table):
    r = Rationale.program(table, "Add(1, 2)")
    assert r.table == tuple(tuple(row) for row in table)
    assert type(r.table) is tuple and all(type(row) is tuple for row in r.table)
    tuple_of_tuples = type(table) is tuple and all(type(row) is tuple for row in table)
    assert (r.table is table) == tuple_of_tuples
