"""Bundled synthetic dataset and mock-tool wiring for offline runs.

Generates a deterministic 20-example corpus: 12 tall infographic-style
examples for the text-evidence flow and 8 chart-style examples (with
structured tables) for the table-program flow. Everything is derived
from fixed literals plus the seed, so repeated runs are byte-identical.
"""

from __future__ import annotations

from .records import ImageRef, OcrBox, QAExample
from .tools import (MockOcrClient, MockPlotToTableClient, MockProgrammerClient,
                    MockStudentClient, MockSummarizerClient, MockVerifierClient,
                    PromptTemplate, ToolClients)

# The default prompt bodies; a config's template file replaces one.
SUMMARIZER_TEMPLATE = PromptTemplate(
    "Extract the shortest span of the OCR text that supports the answer.\n"
    "OCR: {ocr}\nQ: {question}\nA: {answer}\nEvidence:")

PROGRAMMER_TEMPLATE = PromptTemplate(
    "Write a one-call program (Div/Mul/Avg/Sum/Diff/Greater/Less/Find) "
    "that derives the answer.\nTable: {table}\nOCR: {ocr}\n"
    "Q: {question}\nA: {answer}\nProgram:")

# (question, gold answer, supporting phrases spread down the image)
_DOC_ITEMS = [
    ("Which social media platform is most used in 2019?", "Instagram",
     ["Social media usage report 2019", "Instagram leads with 68% of users",
      "Facebook trails at 52%", "Twitter holds 31%"]),
    ("What year was the company founded?", "1987",
     ["Annual report cover", "Founded in 1987 in Lisbon",
      "Revenue grew steadily", "Offices in 12 countries"]),
    ("Who is the chief executive officer?", "Maria Santos",
     ["Leadership overview", "CEO: Maria Santos",
      "CFO: Jonas Berg", "CTO: Ana Lima"]),
    ("What percentage of energy comes from solar?", "23",
     ["Energy mix infographic", "Solar accounts for 23 percent",
      "Wind provides 31 percent", "Coal declines to 18 percent"]),
    ("Which country has the highest literacy rate?", "Finland",
     ["Global literacy rankings", "Finland tops the list at 99%",
      "Norway follows closely", "Global average is 86%"]),
    ("How many employees work remotely?", "4200",
     ["Workforce statistics", "4200 employees work remotely",
      "Office attendance fell", "Hybrid policies expanded"]),
    ("What is the warranty period?", "5 years",
     ["Product specification sheet", "Warranty period: 5 years",
      "Battery life 12 hours", "Weight 1.4 kg"]),
    ("Which continent shows the fastest growth?", "Africa",
     ["Population growth by continent", "Africa grows fastest at 2.5%",
      "Asia at 0.9%", "Europe near zero"]),
    ("What is the capital expenditure for 2020?", "14 million",
     ["Financial summary", "Capital expenditure reached 14 million in 2020",
      "Operating costs stable", "Debt reduced by a third"]),
    ("Which vitamin is most abundant in oranges?", "Vitamin C",
     ["Nutrition facts poster", "Oranges are richest in Vitamin C",
      "Also contain fiber", "Low in protein"]),
    ("What is the boiling point listed?", "100 degrees",
     ["Laboratory reference card", "Water boils at 100 degrees",
      "Freezes at 0 degrees", "Density 1 g/mL"]),
    ("Which department filed the most requests?", "Logistics",
     ["Internal requests dashboard", "Logistics filed the most requests",
      "HR came second", "IT closed tickets fastest"]),
]

# (question, gold answer, table rows, program)
_CHART_ITEMS = [
    ("What is the ratio of cats to dogs?", "5",
     [["animal", "count"], ["cats", "25"], ["dogs", "5"]], "Div(25, 5)"),
    ("What is the average score across terms?", "3",
     [["term", "score"], ["T1", "1"], ["T2", "2"], ["T3", "3"], ["T4", "6"]],
     "Avg(1, 2, 3, 6)"),
    ("What is the total rainfall over the quarter?", "6",
     [["month", "mm"], ["Jan", "1"], ["Feb", "2"], ["Mar", "3"]], "Sum(1, 2, 3)"),
    ("How much higher is 2021 revenue than 2020?", "5",
     [["year", "revenue"], ["2020", "2"], ["2021", "7"]], "Diff(7, 2)"),
    ("Is group A larger than group B?", "Yes",
     [["group", "size"], ["A", "10"], ["B", "2"]], "Greater(10, 2)"),
    ("Is the red bar smaller than the blue bar?", "No",
     [["bar", "value"], ["red", "10"], ["blue", "2"]], "Less(10, 2)"),
    ("What is the product of unit price and quantity?", "12",
     [["field", "value"], ["price", "3"], ["qty", "4"]], "Mul(3, 4)"),
    ("Which fuel dominates the mix?", "gas",
     [["fuel", "share"], ["gas", "55"], ["oil", "30"], ["coal", "15"]], "Find(gas)"),
]


def make_doc_examples() -> list[QAExample]:
    examples = []
    for i, (question, answer, phrases) in enumerate(_DOC_ITEMS):
        height, width = 1000 + 100 * (i % 5), 400
        boxes = []
        step = (height - 60) // len(phrases)
        for j, phrase in enumerate(phrases):
            y0 = 20 + j * step
            boxes.append(OcrBox(phrase, 10, y0, width - 10, y0 + 30))
        examples.append(QAExample(
            example_id=f"doc{i:02d}",
            image=ImageRef(id=f"doc{i:02d}", height=height, width=width,
                           source_uri=f"synthetic://doc{i:02d}.png"),
            question=question,
            gold_answers=(answer,),
            ocr_text=" ".join(phrases),
            ocr_boxes=tuple(boxes),
        ))
    return examples


def make_chart_examples() -> list[QAExample]:
    examples = []
    for i, (question, answer, table, _program) in enumerate(_CHART_ITEMS):
        height, width = 400, 900 + 50 * (i % 4)
        cells = [c for row in table for c in row]
        boxes = []
        for j, cell in enumerate(cells):
            x0 = 10 + (j * 80) % (width - 100)
            y0 = 20 + (j // 10) * 40
            boxes.append(OcrBox(cell, x0, y0, x0 + 70, y0 + 20))
        examples.append(QAExample(
            example_id=f"chart{i:02d}",
            image=ImageRef(id=f"chart{i:02d}", height=height, width=width,
                           source_uri=f"synthetic://chart{i:02d}.png"),
            question=question,
            gold_answers=(answer,),
            ocr_text=" ".join(cells),
            ocr_boxes=tuple(boxes),
            structured_table=tuple(tuple(r) for r in table),
        ))
    return examples


def make_mock_clients(seed: int = 0) -> ToolClients:
    """Mock tools preloaded with fixtures for the bundled corpus."""
    summarizer_fixtures = {}
    for question, answer, phrases in _DOC_ITEMS:
        # the supporting phrase is the one naming the answer
        support = next((p for p in phrases if answer.split()[0] in p), phrases[0])
        summarizer_fixtures[(question, answer)] = support
    programmer_fixtures = {}
    for question, answer, _table, program in _CHART_ITEMS:
        programmer_fixtures[(question, answer)] = program

    gold_by_question = {q: a for q, a, _ in _DOC_ITEMS}
    gold_by_question.update({q: a for q, a, _t, _p in _CHART_ITEMS})

    return ToolClients(
        ocr=MockOcrClient(seed=seed),
        summarizer=MockSummarizerClient(fixtures=summarizer_fixtures),
        programmer=MockProgrammerClient(fixtures=programmer_fixtures),
        plot_to_table=MockPlotToTableClient(),
        verifier=MockVerifierClient(seed=seed, gold_by_question=gold_by_question),
    )


def make_mock_students(fold_count: int) -> dict[int, MockStudentClient]:
    """One mock student per fold, trained on every other fold."""
    all_folds = set(range(fold_count))
    return {
        fold: MockStudentClient(train_folds=frozenset(all_folds - {fold}))
        for fold in all_folds
    }
