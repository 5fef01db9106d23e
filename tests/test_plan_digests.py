"""Byte-level pins of plan documents and verification reports.

Each corpus entry builds a plan the way the CLI or a builder test does;
the sha256 of its canonical plan document and of its verification report
JSON must not move.  A change to the builders, the fold or the round
validator that alters a single float shows up here.
"""

import hashlib
import json

import numpy as np
import pytest

from commitment_games import (
    Game,
    MixedProfile,
    build_2x2_plan,
    build_partial_support_plan,
    build_plan,
    build_two_player_full_support_plan,
    choose_delta,
    plan_to_dict,
    solve_on_support,
    verify_plan,
)
from commitment_games.catalog import (
    cyclic_with_prize,
    cyclic_with_prize_overlap,
    naive_spoiler_plan,
    spoiler_3x3,
    three_player_cycle,
    two_mode_mixing,
    unfair_split,
)
from conftest import full_support_two_player, mismatching_two_by_two

EX5_SIGMA = MixedProfile([[0.3333333333333333, 0.3333333333333333,
                           0.3333333333333334, 0.0]] * 2)


def _ex3(delta):
    game = unfair_split()
    sigma = MixedProfile.pure(game.action_counts, (0, 0))
    if delta is None:
        return game, choose_delta(game, sigma, payoffs=(4.0, 3.0))[1]
    return game, build_plan(game, sigma, payoffs=(4.0, 3.0), delta=delta)


def _ex3_trivial():
    game = unfair_split()
    sigma = MixedProfile.pure(game.action_counts, (0, 0))
    return game, build_partial_support_plan(game, sigma, (0, 0), 0.5, validate=False)


def _ex4():
    game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over(game.action_counts, [(0, 1, 2), (0, 1, 2)])
    return game, build_plan(game, sigma, target=(3, 3), delta=0.02)


def _ex5():
    game = cyclic_with_prize_overlap()
    return game, choose_delta(game, EX5_SIGMA, target=(3, 2))[1]


def _ex6():
    game = three_player_cycle()
    sigma = MixedProfile.uniform_over(game.action_counts, [(0, 1)] * 3)
    return game, build_plan(game, sigma, target=(0, 0, 0), delta=0.01)


def _mix3x3_indirect():
    game = two_mode_mixing()
    sigma = MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    return game, build_plan(game, sigma, target=(0, 0), delta=0.25)


def _full_support_2p():
    game, sigma = full_support_two_player(np.random.default_rng(1))
    return game, build_two_player_full_support_plan(game, sigma, (0, 0), 0.4,
                                                    validate=False)


def _two_by_two(utilities, target):
    """A 2x2 plan toward the 0-based `target` from the game's mixed
    equilibrium at a cap of 0.25.  Targets with a second action relabel
    the players' actions, so the builder's burns name outcomes out of
    ascending order."""
    game = Game(utilities)
    sigma = solve_on_support(game, [(0, 1), (0, 1)]).profile
    return game, build_2x2_plan(game, sigma, target, 0.25)


CORPUS = {
    "ex3_payoffs_d0.5": lambda: _ex3(0.5),
    "ex3_payoffs_auto": lambda: _ex3(None),
    "ex3_trivial": _ex3_trivial,
    "ex4_d0.02": _ex4,
    "ex5_auto": _ex5,
    "ex6_d0.01": _ex6,
    "mix3x3_indirect": _mix3x3_indirect,
    "spoiler_d0.5": lambda: (spoiler_3x3(), naive_spoiler_plan(0.5)),
    "spoiler_d0.1": lambda: (spoiler_3x3(), naive_spoiler_plan(0.1)),
    "full_support_2p": _full_support_2p,
    "two_by_two": lambda: mismatching_two_by_two(np.random.default_rng(7)),
    # Mismatching players toward (2, 1) and (2, 2), matching ones toward (2, 2).
    "two_by_two_t21": lambda: _two_by_two([[[2.0, -2.5], [0.0, -1.0]],
                                            [[2.5, -1.5], [2.5, 3.0]]], (1, 0)),
    "two_by_two_t22": lambda: _two_by_two([[[-2.5, 2.5], [0.0, 1.5]],
                                            [[-1.0, -0.5], [2.5, 2.0]]], (1, 1)),
    "two_by_two_matching": lambda: _two_by_two([[[3.0, -3.0], [-3.0, 3.0]],
                                                 [[3.0, -1.5], [-2.5, -1.0]]], (1, 1)),
}

# sha256 of each entry's (canonical plan document, verification report JSON).
DIGESTS = {
    "ex3_payoffs_auto": ("b4c7943bb4b255fc166f2eca0e6c33b4078876638ebf022945a4b2dcfcd05fae",
                         "82877ca7d2d6c16e06fb5302597b85655c0b92f43cfd3149c444d0199e3b3f14"),
    "ex3_payoffs_d0.5": ("a360a1a0a3cd19b357fc97bda727a944fe176785ed47cbc97bd2f54f391801ee",
                         "04731bb7e0a84a1aa20846ef67a18423cf1338cdeddc69c030acf45eeeec9f9b"),
    "ex3_trivial": ("d6b68608c1e16162af5fc3435992b66334b9a9f9eb344583728de6b29293ac6e",
                    "976c5540d51b5d2e111262826da03cd724af98920035a66f0b552862d35f5ea2"),
    "ex4_d0.02": ("f9dd9268c4e1efe786e3697ab704506929c84a2a4476f172a0f1ba71e631339d",
                  "756edf7657e0c6aecbb2d3007180ec46c97925949d16e74d96da9a5ffd7ba21e"),
    "ex5_auto": ("a6fcbe591184e463af62f9dd89d59c02f50e79ae4b056efea717da285c07dc61",
                 "0d150d3105ea32f20d04b3525d797553a51fc4dd5cad2753387d68ec7c42fdc0"),
    "ex6_d0.01": ("0a59586688b9c558c74aedadb34ce537658111fa48bf2fe71ecaacf44558678d",
                  "a1042fee2a80df1767743722bf8d7b55284a70249b90bc538d9abe59d5ebc7f1"),
    "full_support_2p": ("e0f955d2bfcd477c4f5a700099543af98ea6769ac7a6d54388c43923fac8b7d1",
                        "5d738f1cda8436262852a7e35a9f9ff6654f106577190af16a79ff1509712e78"),
    "mix3x3_indirect": ("ba0efcd1af3446755c76145f430be6f32954c93e0ce461c30eec951d6b9b3b3f",
                        "377fb0a063b67a36a97d1926af9dd7784aa9b658394ef484530f36d6aba5cd00"),
    "spoiler_d0.1": ("5d3f5ef357fd8c3468f731ce4edd411e7bbf6baf86abbffa81b74546aca6974a",
                     "a9b07cf00b2db7a55b43a5c1514925f72c8501791e3ea266dc1084e4bde86083"),
    "spoiler_d0.5": ("b6503b0ed09c283a73cc48d9a1cbf970bbcb0198ebc8da2d04f1d1deddbd0311",
                     "bc876a7872c18a2abbb7683447b616464e9e272732a500ee0ab5cd7d4e6c29b8"),
    "two_by_two": ("e7f43ca66a6b78283f0a5d4e0f9d6f75638e4d6e8a3075f7b5e4a1a03db0d3c2",
                   "c29466fd41857275b790a2ba388eef3dd15d11907040f5680e4c7d6d1ff3bc9c"),
    "two_by_two_matching": ("c8cc1f4bb0889fe56822ac072d3b898a60591d936a4550f6dd21081c4d6cd29f",
                            "c486705fdf40254f8d77daeb3b7f1c906d85c38324dbc50b0f85b43049e421e7"),
    "two_by_two_t21": ("259af91d7b89543c3dabfda25b7f63b7bb79bb7fe4f72b4dabcfb2fec49cc4cc",
                       "003bb9d3fad8245f0a49166a0608da3d729ac3d9f88cc3250258fe7b14b1bc90"),
    "two_by_two_t22": ("0167c2db890a2f551fc438d1fbd4e6085cc8221c2efddc1b88f6a727855dd993",
                       "503eb4f61323a0ad27ecd4a7a4766223774de6c60adbb38e1916d82d4f3abc05"),
}


def corpus_digests(key):
    game, plan = CORPUS[key]()
    plan_doc = json.dumps(plan_to_dict(plan), sort_keys=True).encode()
    report = verify_plan(game, plan).to_json().encode()
    return (hashlib.sha256(plan_doc).hexdigest(),
            hashlib.sha256(report).hexdigest())


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_plan_and_report_bytes_are_pinned(key):
    assert corpus_digests(key) == DIGESTS[key]
