"""Structured command reports rendered as text and JSON.

Reports are deterministic for fixed inputs and seed: no timestamps, no
timings, no unordered iteration.  The CLI emits no timings; traced runs of
the benchmark harness (benchmarks/run.py --trace 1) measure them outside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)   # (name, ok, detail)
    sections: list = field(default_factory=list)   # (title, [lines])

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def verdict(self, name: str, ok: bool, detail: str = ""):
        self.verdicts.append((name, bool(ok), detail))

    def section(self, title: str, lines):
        self.sections.append((title, [str(line) for line in lines]))

    def render_text(self) -> str:
        out = [f"== {self.command} =="]
        for key in sorted(self.inputs):
            out.append(f"{key}: {self.inputs[key]}")
        for title, lines in self.sections:
            out.append(f"-- {title} --")
            out.extend(f"  {line}" for line in lines)
        for name, ok, detail in self.verdicts:
            mark = "pass" if ok else "FAIL"
            out.append(f"[{mark}] {name}" + (f" :: {detail}" if detail else ""))
        out.append(f"result: {'ok' if self.ok else 'failure'}")
        return "\n".join(out) + "\n"

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "sections": [{"title": t, "lines": ls} for t, ls in self.sections],
            "verdicts": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in self.verdicts
            ],
            "ok": self.ok,
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
