"""The package's surface: the names it exports, and the parameters of the
exact engine, the lemma checks and the bound report.  Each parameter is read
by a CLI path or a library route, and none exists only for tests to set; no
module imports a name it does not read."""

import ast
import inspect
from pathlib import Path

import pytest

import truncperm
from truncperm import bounds, checks, exact, game, moments

# the README tour's names, the two refusals and the version
EXPORTS = {
    "Params", "exact_advantage", "brute_force_advantage", "bound_report", "Rule",
    "optimal_rule", "play_game_sharded", "EnumerationLimitError", "SamplerLimitError",
    "__version__",
}

PARAMETERS = {
    exact.exact_advantage: ["params", "identity"],
    exact.advantage_sum: ["params", "side", "pairs_above"],
    exact.enumerate_profiles: ["params"],
    exact.brute_force_advantage: ["params"],
    game.rule_advantage_exact: ["params", "rule"],
    exact.mc_advantage: ["params", "trials", "rng"],
    exact.mc_advantage_sharded: ["params", "trials", "seed", "workers"],
    moments.pair_collision_moments_brute: ["q", "buckets"],
    exact.transcript_tallies: ["q", "buckets"],
    checks.check_distinct_prob_upper: [],
    checks.check_log1m_lower: [],
    checks.check_distinct_prob_lower: [],
    checks.check_doubling: [],
    checks.check_profile_score_maximizer: [],
    checks.check_likelihood_exponential_bound: ["half_domain_only"],
    checks.check_witness_poly: [],
    checks.check_witness_poly_expectation: [],
    checks.check_fourth_moment: [],
    checks.check_tail_probability: ["rng", "trials"],
    checks.run_lemma_suite: ["rng", "trials"],
    bounds.bound_report: ["n", "m", "q"],
    bounds.bellare_impagliazzo_upper: ["n", "m", "q"],
}


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__name__)
def test_takes_only_the_parameters_it_reads(fn):
    assert list(inspect.signature(fn).parameters) == PARAMETERS[fn]


def test_ceilings_are_fixed():
    assert exact.PROFILE_CEILING == 10**6
    assert exact.TRANSCRIPT_CEILING == 10**7
    # the moments oracle lists its transcripts through the same ceiling
    with pytest.raises(exact.EnumerationLimitError,
                       match=f"exceed ceiling {exact.TRANSCRIPT_CEILING}$"):
        moments.pair_collision_moments_brute(24, 2)


def test_exports_only_the_tour_and_its_errors():
    # a submodule becomes an attribute of the package once it is imported
    public = {name for name, value in vars(truncperm).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public | {"__version__"} == EXPORTS
    assert isinstance(truncperm.__version__, str)


MODULES = sorted(p for p in Path(truncperm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in read} == {}
