"""Square sliding-window crop augmentation along the longer image edge.

Windows are square (side = the shorter edge) and consecutive windows
overlap by half that side. The verbatim mode can leave an uncovered tail
when the extent is not a multiple of half the short edge; full-coverage
mode appends one final window flush with the far edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .records import Crop, ImageRef, OcrBox, QAExample

VERBATIM = "verbatim"
FULL_COVERAGE = "full-coverage"


class InvalidGeometry(ValueError):
    pass


@dataclass(frozen=True)
class CropPlan:
    axis: str  # "height" or "width"
    windows: tuple[tuple[int, int], ...]


def plan_crops(height: int, width: int, mode: str = VERBATIM) -> CropPlan:
    """Plan sliding square windows along the longer edge.

    With h >= w the j-th window is [w*j//2, min(w*j//2 + w, h)] for
    j = 0, 1, ... while w*j < h; symmetric on width otherwise. Start
    offsets use integer floor division.
    """
    if height <= 0 or width <= 0:
        raise InvalidGeometry(f"non-positive geometry {height}x{width}")
    if mode not in (VERBATIM, FULL_COVERAGE):
        raise ValueError(f"unknown crop mode {mode!r}")

    if height >= width:
        axis, extent, short = "height", height, width
    else:
        axis, extent, short = "width", width, height

    windows = []
    j = 0
    while short * j < extent:
        start = short * j // 2
        end = min(short * j // 2 + short, extent)
        windows.append((start, end))
        j += 1

    if mode == FULL_COVERAGE and windows[-1][1] < extent:
        # continue the half-overlap slide past the verbatim stop, then end
        # with a full-size window flush against the far edge
        while short * j // 2 + short < extent:
            window = (short * j // 2, short * j // 2 + short)
            if window != windows[-1]:
                windows.append(window)
            j += 1
        if windows[-1] != (extent - short, extent):
            windows.append((extent - short, extent))

    return CropPlan(axis=axis, windows=tuple(windows))


def apply_plan(parent: QAExample, plan: CropPlan) -> list[QAExample]:
    """Produce one child example per window.

    Child OCR keeps only boxes lying fully inside the window, concatenated
    in reading order (top-to-bottom, then left-to-right by box origin; boxes
    tied on both keep the parent's order). The parent's boxes are put in
    that order once, and each window keeps those it holds, in turn. Box
    coordinates stay in the parent frame; the child ImageRef records the
    window as crop metadata. A parsed parent with OCR text has its boxes
    (`QAExample.from_json`).
    """
    ordered = sorted(parent.ocr_boxes or (), key=lambda b: (b.y0, b.x0))
    children = []
    for j, (start, end) in enumerate(plan.windows):
        boxes = _boxes_in_window(ordered, plan.axis, start, end)
        child_image = ImageRef(
            id=f"{parent.image.id}#c{j}",
            height=parent.image.height,
            width=parent.image.width,
            crop=Crop(axis=plan.axis, start=start, end=end),
            source_uri=parent.image.source_uri,
        )
        children.append(QAExample(
            example_id=f"{parent.example_id}#c{j}",
            image=child_image,
            question=parent.question,
            gold_answers=parent.gold_answers,
            ocr_text=" ".join(b.text for b in boxes),
            ocr_boxes=boxes if parent.ocr_boxes is not None else None,
            structured_table=parent.structured_table,
        ))
    return children


def _boxes_in_window(boxes, axis: str, start: int, end: int) -> tuple[OcrBox, ...]:
    """The boxes lying fully inside the window, in their order in `boxes`."""
    if axis == "height":
        return tuple([b for b in boxes if start <= b.y0 and b.y1 <= end])
    return tuple([b for b in boxes if start <= b.x0 and b.x1 <= end])
