"""README's library tour runs as written and states what it computes."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library tour")
    start = text.index("```python\n", start) + len("```python\n")
    return text[start:text.index("```", start)]


def test_library_tour_runs_and_states_its_values():
    scope: dict = {}
    exec(compile(_tour(), str(README), "exec"), scope)
    verdict = scope["Verdict"]
    assert scope["cert"].verdict == verdict.LINEAR_TYPE
    assert scope["dims"].dim == 3
    assert scope["report"].codim_entry == 2
    assert scope["member"].certificate.verdict == verdict.LINEAR_TYPE
