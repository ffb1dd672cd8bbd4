"""The README's library tour runs as written, so the API it shows stays."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
TOUR_NAMES = ("Params", "exact_advantage", "brute_force_advantage", "bound_report",
              "Rule", "optimal_rule", "play_game", "make_rng")


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    for name in TOUR_NAMES:
        assert re.search(rf"\b{name}\b", block), name
    exec(compile(block, str(README), "exec"), {})
