"""Seeded response corpus over all seven task types, written as mskd JSONL.

The generator writes the corpus formats documented in ``mskd.corpus`` from
its own code and imports nothing from the package, so a change to the
program can never change the benchmark's inputs.  Every question gets
exactly ``k`` teacher responses; exactly ``round(broken_share * rows)`` of
them lose their closing ``</answer>`` tag.
"""

from __future__ import annotations

import json
import string
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

TASKS = (
    "temporal_grounding",
    "spatial_grounding",
    "multiple_choice",
    "binary_qa",
    "numerical",
    "ocr",
    "open_ended",
)
_OCR_ALPHABET = string.ascii_lowercase + string.digits + "  "
_WORDS = (
    "the", "a", "person", "walks", "near", "red", "car", "while", "music",
    "plays", "slowly", "bright", "room", "two", "dogs", "run", "across", "field",
)


@dataclass(frozen=True)
class CorpusSpec:
    """Resolved corpus parameters; ``questions_per_task`` of each task type."""

    questions_per_task: int = 286
    k: int = 8
    broken_share: float = 0.05
    ocr_min_len: int = 8
    ocr_max_len: int = 40
    think_share: float = 0.5

    @property
    def n_questions(self) -> int:
        return self.questions_per_task * len(TASKS)

    @property
    def n_rows(self) -> int:
        return self.n_questions * self.k

    @property
    def n_broken(self) -> int:
        return int(round(self.broken_share * self.n_rows))

    def to_json(self) -> dict:
        return asdict(self)


def _r(x: float, nd: int) -> float:
    return round(float(x), nd)


def _words(rng, lo: int, hi: int) -> str:
    return " ".join(_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), int(rng.integers(lo, hi + 1))))


def _ocr_edit(rng, s: str) -> str:
    chars = list(s)
    for _ in range(int(rng.integers(0, 5))):
        op = int(rng.integers(3))
        pos = int(rng.integers(len(chars) + (op == 1)))
        ch = _OCR_ALPHABET[int(rng.integers(len(_OCR_ALPHABET)))]
        if op == 0 and chars:
            chars[min(pos, len(chars) - 1)] = ch
        elif op == 1:
            chars.insert(pos, ch)
        elif len(chars) > 1:
            del chars[min(pos, len(chars) - 1)]
    out = "".join(chars).strip()
    return out or s


def _question(rng, task: str, qid: str, spec: CorpusSpec, ocr_len: int) -> tuple[dict, list[str]]:
    """One example record and the answer-span contents of its k samples."""
    k = spec.k
    ex: dict = {"id": qid, "task": task, "question": f"{task} question {qid}"}
    if task == "temporal_grounding":
        a = _r(rng.uniform(0.0, 60.0), 2)
        b = _r(a + rng.uniform(5.0, 40.0), 2)
        ex["ground_truth"] = [a, b]
        noise = rng.uniform(0.5, 15.0)
        answers = []
        for _ in range(k):
            s, e = sorted((max(0.0, a + rng.normal(0, noise)), max(0.0, b + rng.normal(0, noise))))
            answers.append(f"<t>{_r(s, 2)}</t> <t>{_r(e, 2)}</t>")
    elif task == "spatial_grounding":
        x1, y1 = rng.uniform(0.0, 0.6, 2)
        x2, y2 = x1 + rng.uniform(0.1, 0.4), y1 + rng.uniform(0.1, 0.4)
        gt = [_r(v, 3) for v in (x1, y1, x2, y2)]
        ex["ground_truth"] = gt
        noise = rng.uniform(0.01, 0.1)
        answers = []
        for _ in range(k):
            bx1, bx2 = sorted((gt[0] + rng.normal(0, noise), gt[2] + rng.normal(0, noise)))
            by1, by2 = sorted((gt[1] + rng.normal(0, noise), gt[3] + rng.normal(0, noise)))
            answers.append("[" + ", ".join(str(_r(v, 3)) for v in (bx1, by1, bx2, by2)) + "]")
    elif task == "multiple_choice":
        n_opt = int(rng.integers(4, 6))
        letters = string.ascii_uppercase[:n_opt]
        gt = letters[int(rng.integers(n_opt))]
        ex["ground_truth"] = gt
        ex["option_count"] = n_opt
        p_right = rng.uniform(0.2, 0.95)
        answers = [
            gt if rng.random() < p_right else letters[int(rng.integers(n_opt))] for _ in range(k)
        ]
    elif task == "binary_qa":
        gt = bool(rng.random() < 0.5)
        ex["ground_truth"] = "yes" if gt else "no"
        p_right = rng.uniform(0.3, 0.95)
        answers = ["yes" if (rng.random() < p_right) == gt else "no" for _ in range(k)]
    elif task == "numerical":
        gt = _r(rng.uniform(-50.0, 500.0), 1)
        ex["ground_truth"] = gt
        rel = rng.uniform(0.01, 0.2)
        answers = [str(_r(gt + rng.normal(0, rel * max(abs(gt), 1.0)), 2)) for _ in range(k)]
    elif task == "ocr":
        chars = [_OCR_ALPHABET[int(i)] for i in rng.integers(0, len(_OCR_ALPHABET), ocr_len)]
        chars[0] = chars[0].strip() or "x"
        chars[-1] = chars[-1].strip() or "x"
        gt = "".join(chars)
        ex["ground_truth"] = gt
        answers = [_ocr_edit(rng, gt) for _ in range(k)]
    else:
        answers = [_words(rng, 4, 14) for _ in range(k)]
    return ex, answers


def generate(spec: CorpusSpec, seed: int) -> tuple[list[dict], list[dict]]:
    """Example and response records for ``seed``; same seed, same records."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 4021]))
    # Every seed gets the same multiset of OCR lengths and the same number of
    # thinking spans, so that seeds differ in content but not in work.
    span = spec.ocr_max_len - spec.ocr_min_len + 1
    ocr_lens = rng.permutation([spec.ocr_min_len + i % span for i in range(spec.questions_per_task)])
    examples: list[dict] = []
    rows: list[dict] = []
    for task in TASKS:
        for i in range(spec.questions_per_task):
            qid = f"{task[:3]}-{i:04d}"
            ex, answers = _question(rng, task, qid, spec, int(ocr_lens[i]))
            examples.append(ex)
            for j, ans in enumerate(answers):
                text = f"<answer>{ans}</answer>"
                rows.append({"example_id": qid, "source": "teacher", "sample_index": j, "text": text})
    n_think = int(round(spec.think_share * len(rows)))
    for idx in rng.choice(len(rows), size=n_think, replace=False):
        rows[int(idx)]["text"] = f"<think>{_words(rng, 6, 30)}</think>\n" + rows[int(idx)]["text"]
    for idx in rng.choice(len(rows), size=spec.n_broken, replace=False):
        rows[int(idx)]["text"] = rows[int(idx)]["text"].replace("</answer>", "")
    return examples, rows


def write(spec: CorpusSpec, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write examples.jsonl and responses.jsonl into ``out_dir``."""
    examples, rows = generate(spec, seed)
    ex_path, resp_path = out_dir / "examples.jsonl", out_dir / "responses.jsonl"
    with open(ex_path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(ex, sort_keys=True) + "\n")
    with open(resp_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return ex_path, resp_path
