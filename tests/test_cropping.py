import pytest
from hypothesis import given, strategies as st

from rdistill.cropping import FULL_COVERAGE, InvalidGeometry, apply_plan, plan_crops
from rdistill.records import ImageRef, OcrBox, QAExample


def brute_force_windows(height, width):
    """Literal transcription of the sliding-window crop procedure."""
    windows = []
    j = 0
    if height >= width:
        w = width
        while w * j < height:
            start = w * j // 2
            end = min(w * j // 2 + w, height)
            windows.append((start, end))
            j += 1
        return "height", windows
    h = height
    while h * j < width:
        start = h * j // 2
        end = min(h * j // 2 + h, width)
        windows.append((start, end))
        j += 1
    return "width", windows


class TestPlanCrops:
    def test_square_image_single_window(self):
        plan = plan_crops(400, 400)
        assert plan.axis == "height"
        assert plan.windows == ((0, 400),)
        assert len(plan.windows) == 1

    def test_tall_image(self):
        plan = plan_crops(1000, 400)
        assert plan.windows == ((0, 400), (200, 600), (400, 800))
        assert len(plan.windows) == 3

    def test_wide_image(self):
        plan = plan_crops(300, 900)
        assert plan.axis == "width"
        assert plan.windows == ((0, 300), (150, 450), (300, 600))
        assert len(plan.windows) == 3

    def test_full_coverage_appends_tail_window(self):
        plan = plan_crops(1000, 400, mode=FULL_COVERAGE)
        assert plan.windows == ((0, 400), (200, 600), (400, 800), (600, 1000))

    def test_full_coverage_no_tail_needed(self):
        # verbatim already reaches the extent
        plan = plan_crops(400, 400, mode=FULL_COVERAGE)
        assert plan.windows == ((0, 400),)

    @pytest.mark.parametrize("h,w", [(0, 10), (10, 0), (-5, 10)])
    def test_invalid_geometry(self, h, w):
        with pytest.raises(InvalidGeometry):
            plan_crops(h, w)


@given(st.integers(1, 2000), st.integers(1, 2000))
def test_verbatim_matches_brute_force(h, w):
    plan = plan_crops(h, w)
    axis, windows = brute_force_windows(h, w)
    assert plan.axis == axis
    assert list(plan.windows) == windows


@given(st.integers(1, 2000), st.integers(1, 2000))
def test_window_starts_and_widths(h, w):
    plan = plan_crops(h, w)
    short = min(h, w)
    for j, (start, end) in enumerate(plan.windows):
        assert start == short * j // 2
        assert end - start <= short


@given(st.integers(1, 2000), st.integers(1, 2000))
def test_full_coverage_covers_extent(h, w):
    plan = plan_crops(h, w, mode=FULL_COVERAGE)
    extent = max(h, w)
    covered = 0
    for start, end in sorted(plan.windows):
        assert start <= covered
        covered = max(covered, end)
    assert covered == extent


def make_parent(h=1000, w=400, boxes=None, ocr_text=None):
    if boxes is None:
        boxes = (OcrBox("top", 10, 0, 100, 100), OcrBox("bottom", 10, 900, 100, 950))
    text = ocr_text if ocr_text is not None else " ".join(b.text for b in boxes)
    return QAExample(
        example_id="p1",
        image=ImageRef(id="p1", height=h, width=w),
        question="q?",
        gold_answers=("a",),
        ocr_text=text,
        ocr_boxes=tuple(boxes),
    )


class TestApplyPlan:
    def test_single_window_copies_ocr(self):
        parent = make_parent(h=400, w=400,
                             boxes=(OcrBox("hello", 0, 0, 50, 20),))
        children = apply_plan(parent, plan_crops(400, 400))
        assert len(children) == 1
        assert children[0].ocr_text == "hello"
        assert children[0].example_id == "p1#c0"
        assert children[0].image.crop.start == 0
        assert children[0].image.crop.end == 400

    def test_window_containment(self):
        parent = make_parent()
        children = apply_plan(parent, plan_crops(1000, 400))
        assert children[0].ocr_text == "top"  # window (0, 400)
        assert children[1].ocr_text == ""     # window (200, 600): nothing inside

    def test_box_straddling_window_edge_excluded(self):
        parent = make_parent(boxes=(OcrBox("straddle", 10, 380, 100, 420),))
        children = apply_plan(parent, plan_crops(1000, 400))
        assert children[0].ocr_text == ""

    def test_reading_order(self):
        boxes = (OcrBox("right", 200, 10, 300, 30),
                 OcrBox("left", 10, 10, 100, 30),
                 OcrBox("above", 10, 0, 100, 5))
        parent = make_parent(boxes=boxes)
        children = apply_plan(parent, plan_crops(1000, 400))
        assert children[0].ocr_text == "above left right"

    def test_question_and_answers_copied(self):
        parent = make_parent()
        for child in apply_plan(parent, plan_crops(1000, 400)):
            assert child.question == parent.question
            assert child.gold_answers == parent.gold_answers


def per_window_sort(parent, plan):
    """What each child's OCR was before the parent's boxes were sorted once:
    the boxes inside the window, sorted per window into reading order."""
    out = []
    for start, end in plan.windows:
        if plan.axis == "height":
            inside = [b for b in parent.ocr_boxes if start <= b.y0 and b.y1 <= end]
        else:
            inside = [b for b in parent.ocr_boxes if start <= b.x0 and b.x1 <= end]
        inside.sort(key=lambda b: (b.y0, b.x0))
        out.append(tuple(inside))
    return out


@st.composite
def parents_with_boxes(draw):
    height, width = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    # few distinct coordinates, so many boxes tie on (y0, x0)
    xs, ys = st.integers(0, min(width, 4)), st.integers(0, min(height, 4))
    boxes = []
    for text in draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=2), max_size=12)):
        x0, y0 = draw(xs), draw(ys)
        x1 = draw(st.integers(x0, width))
        y1 = draw(st.integers(y0, height))
        boxes.append(OcrBox(text, x0, y0, x1, y1))
    return make_parent(h=height, w=width, boxes=boxes)


@given(parents_with_boxes(), st.sampled_from(["verbatim", FULL_COVERAGE]))
def test_apply_plan_equals_a_per_window_sort(parent, mode):
    plan = plan_crops(parent.image.height, parent.image.width, mode)
    children = apply_plan(parent, plan)
    want = per_window_sort(parent, plan)
    assert [child.ocr_boxes for child in children] == want
    assert [child.ocr_text for child in children] == [" ".join(b.text for b in w) for w in want]
    # equal boxes compare equal: the tie order shows in their identity
    assert [[id(b) for b in child.ocr_boxes] for child in children] == \
        [[id(b) for b in w] for w in want]


def test_tied_boxes_keep_the_parents_order():
    boxes = (OcrBox("second", 5, 5, 9, 9), OcrBox("b", 0, 0, 1, 1), OcrBox("third", 5, 5, 6, 6),
             OcrBox("a", 0, 0, 2, 2))
    parent = make_parent(h=400, w=400, boxes=boxes)
    assert apply_plan(parent, plan_crops(400, 400))[0].ocr_text == "b a second third"
