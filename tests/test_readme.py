"""The README's library tour runs as written, so the API it shows stays."""

import csv
import io
import re
from pathlib import Path

from truncperm import Params, optimal_rule, play_game_sharded
from truncperm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TOUR_NAMES = ("Params", "exact_advantage", "brute_force_advantage", "bound_report",
              "Rule", "optimal_rule", "play_game_sharded")


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    for name in TOUR_NAMES:
        assert re.search(rf"\b{name}\b", block), name
    exec(compile(block, str(README), "exec"), {})


def test_tour_game_is_the_cli_row(capsys):
    # the tour's call gives the row of the same cell, trials and seed
    res = play_game_sharded(Params(8, 4, 32), optimal_rule(), trials=10**5, seed=0)
    assert main("game --n 8 --m 4 --q 32 --trials 100000 --seed 0".split()) == 0
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert float(row["empirical_advantage"]) == res.empirical_advantage
    assert float(row["std_err"]) == res.standard_error
