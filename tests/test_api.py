"""The package's surface: the names it exports, and the parameters of the
exact engine, the shard runner, the lemma checks and the bound report.  Each
parameter is read by a CLI path or a library route, and none exists only for
tests to set; no module imports a name it does not read, and every name the
package defines is read somewhere in it."""

import ast
import inspect
from pathlib import Path

import pytest

import truncperm
from truncperm import bounds, checks, core, exact, game, moments, stream

# the README tour's names, the two refusals and the version
EXPORTS = {
    "Params", "exact_advantage", "brute_force_advantage", "bound_report", "Rule",
    "optimal_rule", "play_game_sharded", "EnumerationLimitError", "SamplerLimitError",
    "__version__",
}

PARAMETERS = {
    exact.exact_advantage: ["params", "identity"],
    exact.advantage_sum: ["params", "side", "max_pairs"],
    exact.enumerate_profiles: ["params"],
    exact.brute_force_advantage: ["params"],
    game.rule_advantage_exact: ["params", "rule"],
    exact.mc_advantage: ["params", "trials", "rng"],
    exact.mc_advantage_sharded: ["params", "trials", "seed"],
    game.play_game_sharded: ["params", "rule", "trials", "seed"],
    core.map_shards: ["fn", "params", "trials", "seed"],
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
    checks.check_tail_probability: ["rng"],
    checks.run_lemma_suite: ["rng"],
    stream.balance_check: ["perm", "m"],
    bounds.bound_report: ["n", "m", "q"],
    bounds.bellare_impagliazzo_upper: ["n", "m", "q"],
    core.all_distinct_prob: ["k", "alpha"],
    core.log_all_distinct: ["k", "alpha"],
    core.likelihood_ratio: ["parts", "params"],
    core.collision_excess_of_profile: ["parts", "params"],
    checks.profile_score: ["parts", "params"],
    moments.pair_collision_moments: ["q", "buckets"],
    moments.profile_power_means: ["params"],
    moments.moments_empirical: ["params", "trials", "rng"],
    moments.sample_excess: ["params", "trials", "rng"],
    moments.power_standard_errors: ["means", "trials"],
}


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__name__)
def test_takes_only_the_parameters_it_reads(fn):
    assert list(inspect.signature(fn).parameters) == PARAMETERS[fn]


def test_ceilings_are_fixed():
    assert exact.PROFILE_CEILING == 10**6
    assert exact.TRANSCRIPT_CEILING == 10**7
    # the tests' moments oracle lists its transcripts through the same ceiling
    with pytest.raises(exact.EnumerationLimitError,
                       match=f"exceed ceiling {exact.TRANSCRIPT_CEILING}$"):
        exact.transcript_tallies(24, 2)


def test_exports_only_the_tour_and_its_errors():
    # a submodule becomes an attribute of the package once it is imported
    public = {name for name, value in vars(truncperm).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public | {"__version__"} == EXPORTS
    assert isinstance(truncperm.__version__, str)


SOURCES = sorted(Path(truncperm.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _scan(path):
    """(defined, imported, loaded, attributes) of one module:
    - defined: each top-level function, class and constant, and each
      method and dataclass field of its classes, as dotted name: line;
    - imported: each name an import binds (none of __future__): line;
    - loaded: the names it reads as plain names;
    - attributes: the attributes it reads and the names it imports."""
    tree = ast.parse(path.read_text())
    defined, imported, loaded, attributes = {}, {}, set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
        if isinstance(node, ast.ClassDef):
            fields = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defined[f"{node.name}.{item.name}"] = item.lineno
                elif fields and isinstance(item, ast.AnnAssign):
                    defined[f"{node.name}.{item.target.id}"] = item.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                attributes.add(alias.name.split(".")[-1])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return defined, imported, loaded, attributes


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    _, imported, loaded, _ = _scan(path)
    assert {name: line for name, line in imported.items() if name not in loaded} == {}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_import_from_a_sibling(path):
    # a module of the package imports no underscore name of another one
    # (`from .x import _y`); dunder names such as __version__ are public
    private = {
        f"{node.module or '.'}.{alias.name}": node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("truncperm"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    }
    assert private == {}


def test_every_name_has_a_reader():
    # a name is read where some module of the package loads it as a name or
    # an attribute or imports it (an export from __init__.py counts); a
    # keyword argument does not.  Dunder names are the interpreter's to read
    scans = {path.stem: _scan(path) for path in SOURCES}
    read = set().union(*(loaded | attributes for _, _, loaded, attributes in scans.values()))
    unread = {}
    for module, (defined, _, _, _) in scans.items():
        for name, line in defined.items():
            bare = name.rpartition(".")[2]
            if bare not in read and not (bare.startswith("__") and bare.endswith("__")):
                unread[f"{module}.{name}"] = line
    assert unread == {}
