"""Verification lab for the distinguishing advantage of truncated random
permutations: exact computation, closed-form bounds, inequality checks, an
operational distinguishing game, and a beyond-birthday-bound keystream
generator."""

from .core import Params, SamplerLimitError
from .exact import EnumerationLimitError, brute_force_advantage, exact_advantage
from .bounds import bound_report
from .game import Rule, optimal_rule, play_game_sharded

__version__ = "0.1.0"
