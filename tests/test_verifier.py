import ast
import contextlib
import dataclasses
import hashlib
import inspect
import math
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from commitment_games import (
    BURN,
    CommitmentRound,
    MixedProfile,
    Pledge,
    build_plan,
    check_deviations,
    check_on_path,
    deviation_payoffs,
    expected_utility,
    fold_plan,
    load_game,
    load_plan,
    round_bound_check,
    verify_plan,
)
from commitment_games import equilibria, verifier
from commitment_games import build_partial_support_plan, protocols
from commitment_games.catalog import (
    cyclic_with_prize,
    cyclic_with_prize_overlap,
    naive_spoiler_plan,
    spoiler_3x3,
    three_player_cycle,
    two_mode_mixing,
    unfair_split,
)
from commitment_games.equilibria import first_stage_batch, punish_batch
from commitment_games.games import (
    DocumentError,
    Game,
    GameShapeError,
    TransferError,
    apply_transfers,
    content_hash,
    welfare_max,
)
from commitment_games.games import OutcomeTarget
from commitment_games.protocols import FoldError, ProtocolPlan, PunishmentStage, fold_rounds
from commitment_games.protocols import CASE_PROMISES
from commitment_games.verifier import (
    DeviationClassResult,
    DeviationFinding,
    PropertyResult,
    commitment_deviation_moves,
)

import scalar_reference as reference
from conftest import (
    feasible_payoff_split,
    game_distance,
    full_support_multiplayer,
    full_support_two_player,
    mismatching_two_by_two,
    small_integer_plan,
)
from test_plan_digests import CORPUS


def best_response_payoff(game, profile, player):
    return float(np.max(deviation_payoffs(game, profile, player)))


def split_plan(delta=1.0):
    game = unfair_split()
    sigma = MixedProfile.pure((2, 2), (0, 0))
    return game, build_plan(game, sigma, payoffs=(4.0, 3.0), delta=delta)


def prize_plan(delta=0.5):
    game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)])
    return game, build_plan(game, sigma, target=(3, 3), delta=delta)


def test_on_path_prize_plan_all_pass():
    game, plan = prize_plan()
    results = check_on_path(game, plan)
    failed = [k for k, v in results.items() if v.status == "fail"]
    assert not failed
    assert results["a"].status == "pass"
    assert results["a1"].status == "pass"
    assert results["b"].status == "pass"


def test_on_path_split_plan_checkpoints():
    game, plan = split_plan()
    sigma = plan.baseline
    for g in reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode):
        assert g.payoff(0, (0, 0)) == 0.0  # anchor outcome untouched
    results = check_on_path(game, plan)
    assert all(v.status != "fail" for v in results.values())
    terminal = fold_plan(game, plan)
    assert tuple(terminal.payoffs((1, 1))) == (4.0, 3.0)


def test_sabotaged_plan_fails_with_round_index():
    game, plan = split_plan()
    rounds = list(plan.rounds)
    rounds[2] = CommitmentRound((Pledge(0, (1, 1), 1, 2.0),))  # breaks the cap
    bad = dataclasses.replace(plan, rounds=tuple(rounds))
    results = check_on_path(game, bad)
    assert results["round_cap"].status == "fail"
    assert results["round_cap"].witness == {"round": 2}
    report = verify_plan(game, bad)
    assert not report.accepted


@pytest.mark.parametrize("changes, message", [
    ({"welfare_stage_rounds": 999}, "welfare_stage_rounds 999 is outside"),
    ({"welfare_stage_rounds": -3}, "welfare_stage_rounds -3 is outside"),
    ({"baseline": MixedProfile.pure((3, 2), (0, 0))}, "baseline has [3, 2] actions"),
])
def test_verify_plan_checks_a_plan_built_in_process(changes, message):
    # Plan files pass these checks when they are read; an in-process plan
    # meets them at `verify_plan`.
    game, plan = split_plan()
    with pytest.raises(DocumentError, match=re.escape(message)):
        verify_plan(game, dataclasses.replace(plan, **changes))


def test_verify_plan_rejects_a_plan_built_for_another_game():
    # The CLI's plan/game check, with its text: one check for both.
    game, plan = split_plan()
    other = game.with_utilities(game.utilities + 1.0)
    with pytest.raises(DocumentError, match="^plan/game mismatch: the plan was built for a game "
                                            "with a different content hash$"):
        verify_plan(other, plan)


@pytest.mark.parametrize("keyword", ["budget", "checkpoint_budget"])
@pytest.mark.parametrize("value", [0, -2])
def test_verify_plan_rejects_a_budget_below_one(keyword, value):
    # 0 divided by zero, and -2 probed only the first and last prefixes.
    game, plan = split_plan()
    with pytest.raises(ValueError, match=f"^{keyword} must be at least 1, got {value}$"):
        verify_plan(game, plan, **{keyword: value})


def test_deviation_classes_on_split_plan():
    game, plan = split_plan()
    results = check_deviations(game, plan, amounts=(0.5, 1.0))
    assert results["commitment"].worst_gain <= 1e-9
    assert not results["commitment"].structural_failures
    # stopping after round 2 strands the deviator at the anchor: 0 < 4
    stops = results["early_stop"]
    assert stops.worst_gain <= 1e-9
    assert stops.worst_gain == pytest.approx(-3.0, abs=1e-9)  # player 2 side
    assert results["continue_when_stop"].worst_gain == 0.0
    # the worst terminal wobble: u'_2(B, A) = -2 against the promised 3
    assert results["terminal_action"].worst_gain == pytest.approx(-5.0, abs=1e-9)


def test_naive_plan_rejected_with_positive_gain():
    game = spoiler_3x3()
    plan = naive_spoiler_plan(0.5)
    report = verify_plan(game, plan)
    assert not report.accepted
    commitment = report.deviations["commitment"]
    assert commitment.worst_gain > 0
    assert commitment.structural_failures  # property (a) refuted
    assert report.witnesses


def test_round_bound_examples():
    game, plan = split_plan()
    check = round_bound_check(plan, game)
    assert check.ok and check.rounds == 6
    assert check.bound == pytest.approx(64 * 2 * 13 * 2 / 1.0)

    empty_game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)])
    from commitment_games import build_partial_support_plan
    trivial = build_partial_support_plan(unfair_split(),
                                         MixedProfile.pure((2, 2), (0, 0)),
                                         (0, 0), 0.5, validate=False)
    assert round_bound_check(trivial, unfair_split()).ok  # empty plan passes


def test_halving_delta_at_most_two_and_a_half_times_rounds():
    game = cyclic_with_prize()
    sigma = MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)])
    plan_a = build_plan(game, sigma, target=(3, 3), delta=0.5)
    plan_b = build_plan(game, sigma, target=(3, 3), delta=0.25)
    assert plan_b.num_rounds <= 2.5 * plan_a.num_rounds


def test_grid_refinement_never_turns_fail_into_pass():
    game = spoiler_3x3()
    plan = naive_spoiler_plan(0.5)
    coarse = check_deviations(game, plan, amounts=(0.5,))
    fine = check_deviations(game, plan, amounts=(0.25, 0.5))
    assert coarse["commitment"].worst_gain > 1e-9
    assert fine["commitment"].worst_gain >= coarse["commitment"].worst_gain - 1e-12


def test_a1_implies_a_on_the_corpus():
    for game, plan in (split_plan(), prize_plan()):
        results = check_on_path(game, plan)
        if results["a1"].status == "pass":
            assert results["a"].status == "pass"


def test_punishment_ceiling_bound_for_burn_plans():
    # along a burn-only plan the punishment found never exceeds u(sigma) + L
    game, plan = prize_plan()
    from commitment_games import find_punishment_equilibrium
    stage = plan.punishment[0]
    for g in reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode):
        result = find_punishment_equilibrium(g, stage.supports, stage.seed,
                                             stage.ceiling)
        assert result.profile is not None
        for i in range(2):
            assert expected_utility(g, result.profile, i) <= stage.ceiling[i] + 1e-9


def test_deviation_grid_contents():
    game = unfair_split()
    moves = dict(commitment_deviation_moves(game, 0, 1.0, "transfers",
                                            (0.5, 1.0)))
    assert "noop" in moves
    assert any(name.startswith("P(0, 0)") or name.startswith("P(0,")
               for name in moves)
    assert any(name.startswith("A pay") for name in moves)
    burn_moves = dict(commitment_deviation_moves(game, 0, 1.0, "burn_only",
                                                 (0.5, 1.0)))
    assert not any(name.startswith(("T", "A")) for name in burn_moves)


def test_report_serialization_round_trip():
    game, plan = split_plan()
    report = verify_plan(game, plan, amounts=(0.5, 1.0))
    doc = report.to_dict()
    assert doc["accepted"] is True
    assert doc["grid"]["amounts"] == [0.5, 1.0]
    assert doc["grid"]["certification"] == "grid"
    assert doc["deviations"]["commitment"]["worst_gain"] <= 1e-9
    assert doc["properties"]["b"]["status"] == "pass"


# ---------------------------------------------------------------------------
# Differential tests: the batched grid against the per-game scalar loop.
# ---------------------------------------------------------------------------

def _scalar_check_deviations(game, plan, *, amounts=None, budget=None, stack=None,
                             punishments=None, updates=None):
    """Reference grid: fold and search every deviation game one at a time.
    `stack` and `updates` are accepted for `verify_plan`'s call and ignored;
    the prefix searches `punishments` asks for (its None values) are made one
    game at a time too."""
    amounts = tuple(amounts) if amounts else (plan.delta / 2, plan.delta)
    games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    R, n = plan.num_rounds, game.num_players
    for k in [k for k, found in (punishments or {}).items() if found is None]:
        stage = plan.stage_for(k)
        pun = reference.find_punishment_equilibrium(
            games[k], stage.supports, stage.seed, stage.ceiling)
        best = np.full(n, np.nan) if pun.profile is None else np.array(
            [best_response_payoff(games[k], pun.profile, i) for i in range(n)])
        punishments[k] = (pun.kind, best, pun.reason)
    on_path = np.asarray(plan.expected_terminal_payoffs)
    results = {c: DeviationClassResult() for c in verifier.DEVIATION_CLASSES}
    prefixes = verifier._prefix_indices(R, budget)
    for k in prefixes:
        stage = plan.stage_for(k)
        for d in range(n):
            others = tuple(p for p in plan.rounds[k].pledges if p.payer != d)
            for name, pledges in reference.commitment_deviation_moves(
                    game, d, plan.delta, plan.mode, amounts):
                dev_round = CommitmentRound(others + tuple(pledges))
                g_dev = reference.apply_transfers(games[k], dev_round, delta=plan.delta,
                                                  mode=plan.mode)
                pun = reference.find_punishment_equilibrium(
                    g_dev, stage.supports, stage.seed, stage.ceiling)
                if pun.profile is None:
                    pure = reference.enumerate_pure_nash(g_dev)
                    gain = (max(g_dev.payoff(d, p) for p in pure) - on_path[d]
                            if pure else math.inf)
                    finding = DeviationFinding(float(gain), k, d, name,
                                               "unavailable", structural=True)
                else:
                    gain = best_response_payoff(g_dev, pun.profile, d) - on_path[d]
                    finding = DeviationFinding(float(gain), k, d, name, pun.kind)
                results["commitment"].record(finding)
    for k in prefixes[1:] if prefixes[:1] == [0] else prefixes:
        stage = plan.stage_for(k)
        pun = reference.find_punishment_equilibrium(
            games[k], stage.supports, stage.seed, stage.ceiling)
        for d in range(n):
            if pun.profile is None:
                finding = DeviationFinding(math.inf, k, d, "stop", "unavailable",
                                           structural=True)
            else:
                gain = best_response_payoff(games[k], pun.profile, d) - on_path[d]
                finding = DeviationFinding(float(gain), k, d, "stop", pun.kind)
            results["early_stop"].record(finding)
    for d in range(n):
        results["continue_when_stop"].record(DeviationFinding(0.0, R, d,
                                                              "continue", "n/a"))
    t = plan.target.profile
    for d in range(n):
        for a in range(game.action_counts[d]):
            if a != t[d]:
                prof = list(t)
                prof[d] = a
                gain = games[R].payoff(d, tuple(prof)) - on_path[d]
                results["terminal_action"].record(DeviationFinding(
                    float(gain), R, d, f"play{a + 1}", "n/a"))
    return results


@contextlib.contextmanager
def _recorded_findings():
    """Every finding any DeviationClassResult records, in order; a stack of
    rows recorded at once is expanded into its findings, row by row."""
    log = []
    record, record_rows = DeviationClassResult.record, DeviationClassResult.record_rows

    def logged(self, finding):
        log.append(finding)
        record(self, finding)

    def logged_rows(self, rows):
        log.extend(rows.finding(r) for r in range(len(rows)))
        record_rows(self, rows)

    with mock.patch.object(DeviationClassResult, "record", logged), \
            mock.patch.object(DeviationClassResult, "record_rows", logged_rows):
        yield log


@contextlib.contextmanager
def _recorded_stacks():
    """Every stack the verifier hands `punish_batch`, in call order."""
    stacks = []
    batch = verifier.punish_batch

    def recorded(utilities, *args):
        stacks.append(np.array(utilities))
        return batch(utilities, *args)

    with mock.patch.object(verifier, "punish_batch", recorded):
        yield stacks


def _every_row_searched():
    """Every row its own key: no row takes another's search, so every row
    of the grid reaches a stack."""
    return mock.patch.object(verifier, "_row_keys", lambda plan, rows, *args: np.arange(len(rows)))


def _keyed(game, plan, **kwargs) -> SimpleNamespace:
    """The rows of `verify_plan`'s grid (`verifier._GridRows`), the first row
    of each row's key as `_row_keys` gives it (`head`) and as the key is
    defined (`want`), and how many rows the definition searches
    (`searched`).  By definition a row's key is its punishment stage, the
    bytes of its base row (a prefix game's own) on the cells that stage's
    first stage reads, and, for a deviation game whose move updates one of
    those cells, its move class (`verifier._move_classes`), found with
    `np.unique` on those bytes and the class; a row of a prefix outside
    the magnitude guard is its own key.  Every row equals its key's first
    row bit for bit on the read cells.  The first row of each key is
    searched, and so is every other row whose first row's search is not
    kept (`kept` holds the first rows whose searches are): it did not settle
    at the first stage, or a player with an on-path payoff of 0.0 has a best
    response of 0.0."""
    got, keys = {}, verifier._row_keys

    def spied(plan, rows, same, guarded):
        got.update(rows=rows, guarded=guarded, head=keys(plan, rows, same, guarded))
        return got["head"]

    with mock.patch.object(verifier, "_row_keys", spied):
        verify_plan(game, plan, **kwargs)
    rows, guarded = got["rows"], got["guarded"]
    prefix = np.concatenate([np.repeat(rows.prefixes, len(rows.deviator)), rows.asked])
    stage = verifier._stage_index(plan, prefix)
    built = rows.build(np.arange(len(rows))).reshape(len(rows), -1)
    n, w, D = game.num_players, len(rows.deviator), len(rows.prefixes) * len(rows.deviator)
    p, j = np.divmod(np.arange(D), w)
    base = np.concatenate([rows.bases[p * n + rows.deviator[j]],
                           rows.U.reshape(len(rows.U), -1)[rows.asked]])
    moves, cells = rows.moves[:2]
    xs = (*(kwargs.get("amounts") or (plan.delta / 2, plan.delta)), plan.delta)
    want, searched, kept_heads = np.arange(len(rows)), 0, set()
    on_path = np.asarray(plan.expected_terminal_payoffs)
    for s in sorted(set(stage.tolist())):
        pun = plan.punishment[s]
        supports = tuple(map(tuple, pun.supports))
        read = equilibria._first_stage_cells(game.utilities.shape, supports)
        classes = verifier._move_classes(game.action_counts, plan.mode,
                                         tuple(map(xs.index, xs)), supports)
        classes = np.arange(w) if classes is None else classes
        # A deviation game's move class where its move updates a read cell,
        # else w, as for a prefix game.
        touched = np.isin(np.arange(w), moves[read[cells]])
        move = np.concatenate([np.where(touched, classes, w)[j], np.full(len(rows.asked), w)])
        mine = np.flatnonzero((stage == s) & guarded[prefix])
        if len(mine):
            key = np.column_stack([np.ascontiguousarray(base[mine][:, read]).view(np.uint64),
                                   move[mine].astype(np.uint64)])
            _, first, index = np.unique(key, axis=0, return_index=True, return_inverse=True)
            want[mine] = mine[first][index.ravel()]
            words = np.ascontiguousarray(built[:, read]).view(np.uint64)
            assert (words[mine] == words[want[mine]]).all()
        heads = np.flatnonzero((stage == s) & (want == np.arange(len(rows))))
        found = punish_batch(built[heads].reshape(-1, *game.utilities.shape), pun.supports,
                             pun.seed, pun.ceiling)
        kept = (np.asarray(found.kinds) == "support_solve") & ~(
            (found.best_response == 0) & (on_path == 0)).any(axis=1)
        takers = Counter(want[(stage == s) & (want != np.arange(len(rows)))].tolist())
        searched += len(heads) + sum(takers[h] for h in heads[~kept].tolist())
        kept_heads.update(heads[kept].tolist())
    return SimpleNamespace(rows=rows, head=got["head"], want=want, searched=searched,
                           kept=kept_heads)


def _assert_same_rows(batched, scalar):
    assert len(batched) == len(scalar)
    for b, s in zip(batched, scalar):
        assert ((b.prefix, b.player, b.move, b.punishment_kind, b.structural)
                == (s.prefix, s.player, s.move, s.punishment_kind, s.structural))
        assert b.gain == s.gain or abs(b.gain - s.gain) <= 1e-12


CATALOG_PLANS = {
    "ex3": lambda: (unfair_split(), split_plan()[1], {"amounts": (0.5, 1.0)}),
    "ex4": lambda: (*prize_plan(), {}),
    "ex5": lambda: (cyclic_with_prize_overlap(), build_plan(
        cyclic_with_prize_overlap(),
        MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)]),
        target=(3, 2), delta=0.5), {}),
    "ex6": lambda: (three_player_cycle(), build_plan(
        three_player_cycle(), MixedProfile.uniform_over((2, 2, 2), [(0, 1)] * 3),
        target=(0, 0, 0), delta=0.1), {"budget": 4}),
    "counter3x3": lambda: (spoiler_3x3(), naive_spoiler_plan(0.5), {}),
}


def _assert_grids_agree(game, plan, **kwargs) -> Counter:
    """The batched and the scalar grid give the same report bytes, rows and
    punishment-kind histograms; returns the histogram over all classes."""
    with _recorded_findings() as batched_rows:
        batched = verify_plan(game, plan, **kwargs)
    with mock.patch.object(verifier, "check_deviations", _scalar_check_deviations), \
            _recorded_findings() as scalar_rows:
        scalar = verify_plan(game, plan, **kwargs)
    assert batched.to_json() == scalar.to_json()
    _assert_same_rows(batched_rows, scalar_rows)
    for c, r in batched.deviations.items():
        _assert_same_rows(r.structural_failures,
                          scalar.deviations[c].structural_failures)
    kinds = {c: r.punishment_kinds for c, r in batched.deviations.items()}
    assert kinds == {c: r.punishment_kinds for c, r in scalar.deviations.items()}
    assert all(sum(h.values()) == batched.deviations[c].checked
               for c, h in kinds.items())
    return sum(kinds.values(), Counter())


@pytest.mark.parametrize("example", sorted(CATALOG_PLANS))
def test_batched_report_is_byte_identical_to_scalar_loop(example):
    game, plan, kwargs = CATALOG_PLANS[example]()
    _assert_grids_agree(game, plan, **kwargs)


def test_batched_grid_matches_scalar_loop_on_seeded_2x2_plans():
    rng = np.random.default_rng(1)
    kinds = Counter()
    for _ in range(20):
        kinds += _assert_grids_agree(*mismatching_two_by_two(rng))
    assert kinds["pure"] and kinds["semi_mixed"]  # the fallback chain ran


def test_batched_grid_matches_scalar_loop_on_small_integer_games_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    kinds = Counter()

    # Fixed draws: an unavailable 4x4 row costs the scalar loop 225
    # support solves, so a free draw could take seconds.
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (3, 3), (4, 4)]))
    def run(seed, counts):
        nonlocal kinds
        game, plan = small_integer_plan(np.random.default_rng(seed), counts)
        kinds += _assert_grids_agree(game, plan, budget=2)

    run()
    assert kinds["support_enum"] and kinds["pure"]


GRID_ERRORS = {
    "over_cap": ((2.0,), TransferError),  # above the cap of 1
    "over_cap_second": ((0.5, 2.0), TransferError),
    "negative": ((0.5, -0.5), TransferError),
    "negative_after_over_cap": ((2.0, -0.5), TransferError),  # the sign error wins
    "nan": ((math.nan, 0.5), TransferError),
    "overflow": (None, GameShapeError),
}


@pytest.mark.parametrize("case", list(GRID_ERRORS))
def test_batched_grid_raises_what_the_scalar_loop_raises(case):
    amounts, error = GRID_ERRORS[case]
    game, plan = split_plan()
    if case == "overflow":
        u = np.array(game.utilities)
        u[0, 0, 1] = -np.finfo(float).max  # any burn there overflows
        game, plan = Game(u), dataclasses.replace(plan, delta=1e300)
    raised = []
    for grid in (check_deviations, _scalar_check_deviations):
        with np.errstate(over="ignore"), \
                pytest.raises((TransferError, GameShapeError)) as info:
            grid(game, plan, amounts=amounts)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is error
    if case == "negative_after_over_cap":
        assert raised[0][1] == "negative pledge amount -0.5"


def test_amounts_over_the_cap_raise_on_a_plan_without_rounds():
    # The per-game reference checks no move when a plan has no round, so
    # this case cannot join GRID_ERRORS.
    game = unfair_split()
    plan = build_partial_support_plan(game, MixedProfile.pure((2, 2), (0, 0)), (0, 0), 0.5,
                                      validate=False)
    assert plan.num_rounds == 0
    with pytest.raises(TransferError, match=r"^player 1 pays 5 > delta=0\.5 at outcome \(1, 1\)$"):
        check_deviations(game, plan, amounts=(5.0,))


# The plan of each construction case, from the digest corpus, and the
# properties each promise governs.
CASE_PLANS = {
    "partial_support_disjoint": "ex4_d0.02",
    "partial_support_mixed": "ex5_auto",
    "in_support_indirect": "mix3x3_indirect",
    "full_support_2p": "full_support_2p",
    "full_support_np": "ex6_d0.01",
    "two_by_two": "two_by_two",
    "welfare_transfer_stage": "ex3_payoffs_d0.5",
}
GOVERNED = {"seed_nash": ("baseline_nash",), "a1": ("a1",), "full_support": ("det_invariance",),
            "welfare": ("Q1", "Q2", "Q3", "Q4", "Q5")}


def test_case_promises_decide_which_properties_are_checked():
    source = ast.parse(inspect.getsource(protocols._structural_case))
    returned = {node.value.value for node in ast.walk(source) if isinstance(node, ast.Return)}
    assert CASE_PROMISES.keys() == CASE_PLANS.keys() == returned | {"welfare_transfer_stage"}
    for tag, key in CASE_PLANS.items():
        game, plan = CORPUS[key]()
        assert plan.case_tag == tag
        properties = check_on_path(game, plan)
        for promise, names in GOVERNED.items():
            for name in names:
                promised = promise in CASE_PROMISES[tag]
                assert (properties[name].status == "na") != promised, (tag, name)


def test_verifier_names_no_case_tag():
    # Which properties a case promises is read from protocols.CASE_PROMISES.
    tree = ast.parse(Path(verifier.__file__).read_text())
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not literals & CASE_PROMISES.keys()


@pytest.mark.parametrize("counts", [(2, 2), (3, 3), (4, 5), (3, 7), (2, 2, 2)])
@pytest.mark.parametrize("mode", ["transfers", "burn_only"])
def test_compiled_move_grid_matches_the_pledge_loop(counts, mode):
    # 4x5 has 20 outcomes, so it gets the combinations; 3x7 has 21 and none.
    game = Game(np.zeros((len(counts), *counts)))
    delta, amounts = 0.3, (0.15, 0.3, 0.07)
    grid = verifier._move_grid(counts, mode, len(amounts))
    xs = (*amounts, delta)
    # Each move's updates, read back from the distinct games' updates.
    per_game = [[] for _ in grid.distinct]
    for j, _, cell, sign in zip(*(a.tolist() for a in grid.updates)):
        per_game[j].append((cell, sign))
    x = np.array(xs)
    edits = [tuple((cell, sign * x[s]) for cell, sign in per_game[j])
             for j, s in zip(grid.spread.tolist(), grid.slot.tolist())]
    got = list(zip(grid.deviator.tolist(), grid.names(xs), edits))
    want = []
    for d in range(len(counts)):
        moves = reference.commitment_deviation_moves(game, d, delta, mode, amounts)
        want += [(d, name, edit_list) for (name, _), edit_list
                 in zip(moves, reference.edit_lists(game, [p for _, p in moves]))]
    assert got == want
    assert any(name.startswith("A") for _, name, _ in got) == (
        mode == "transfers" and math.prod(counts) <= 20)
    for d in range(len(counts)):
        assert (commitment_deviation_moves(game, d, delta, mode, amounts)
                == reference.commitment_deviation_moves(game, d, delta, mode, amounts))


def _distinct_moves(game, plan, d, amounts=None):
    """Deviator d's grid moves that fold to a new game: the first of each
    set of moves with the same cell edits (per pledge the payer's debit,
    then the recipient's credit)."""
    amounts = amounts or (plan.delta / 2, plan.delta)
    seen, kept = set(), []
    for name, pledges in commitment_deviation_moves(game, d, plan.delta, plan.mode,
                                                    amounts):
        edits = []
        for p in pledges:
            edits.append(((p.payer, *p.outcome), -p.amount))
            if p.recipient != BURN:
                edits.append(((p.recipient, *p.outcome), p.amount))
        if tuple(edits) not in seen:
            seen.add(tuple(edits))
            kept.append((name, pledges))
    return kept


def _classes(game, plan, stage, amounts=None) -> list[int]:
    """Per distinct move of every deviator (`_distinct_moves`), in the
    grid's order, the first distinct move of the same deviator with the
    same edits of the cells that the first stage of `stage` reads (per
    pledge the payer's debit, then the recipient's credit), in the same
    order: the head of its class."""
    read = equilibria._first_stage_cells(game.utilities.shape,
                                         tuple(map(tuple, stage.supports)))
    read = read.reshape(game.utilities.shape)
    first, classes = {}, []
    for d in range(game.num_players):
        for _, pledges in _distinct_moves(game, plan, d, amounts):
            edits = []
            for p in pledges:
                edits.append(((p.payer, *p.outcome), -p.amount))
                if p.recipient != BURN:
                    edits.append(((p.recipient, *p.outcome), p.amount))
            key = (d, tuple((c, a) for c, a in edits if read[c]))
            classes.append(first.setdefault(key, len(classes)))
    return classes


def _heads(game, plan, stage) -> int:
    """The class heads of every deviator under `stage`."""
    return sum(c == j for j, c in enumerate(_classes(game, plan, stage)))


def _welfare_then_burn_plan():
    """A 2x2 transfers plan whose burn sub-plan takes over at round 3 of 6."""
    rng = np.random.default_rng(0)
    game, sigma = full_support_two_player(rng, actions=2)
    split = feasible_payoff_split(rng, game, sigma)
    return game, build_plan(game, sigma, payoffs=split, delta=0.25)


CHUNK_CASES = {
    "mix3x3_indirect": lambda: (two_mode_mixing(), build_plan(
        two_mode_mixing(), MixedProfile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]),
        target=(0, 0), delta=0.25)),
    "welfare_then_burn": _welfare_then_burn_plan,
}


@pytest.mark.parametrize("case, prefixes, kwargs", [
    ("mix3x3_indirect", 1, {}),
    ("mix3x3_indirect", 1, {"budget": 4}),
    ("welfare_then_burn", 2, {}),  # the stage change at round 3 cuts a chunk
])
def test_chunked_grid_matches_scalar_loop(monkeypatch, case, prefixes, kwargs):
    game, plan = CHUNK_CASES[case]()
    rows = sum(len(_distinct_moves(game, plan, d)) for d in range(game.num_players))
    # Every prefix game's own search rides along, one more row per prefix:
    # below two grid prefixes' rows, a chunk holds one grid prefix.
    budget = 2 * rows - 1 if prefixes == 1 else prefixes * (rows + 1)
    monkeypatch.setattr(verifier, "ROW_BUDGET", budget)
    with _recorded_stacks() as stacks:
        _assert_grids_agree(game, plan, **kwargs)
    sizes = [len(u) for u in stacks]
    grid = verifier._prefix_indices(plan.num_rounds, kwargs.get("budget"))
    # The stacks hold the first row of each key, and the other rows of a key
    # whose first row's search is not kept, at most the budget each.
    keyed = _keyed(game, plan, **kwargs)
    assert (keyed.head == keyed.want).all() and sum(sizes) == keyed.searched
    assert max(sizes) <= budget
    if prefixes == 1:
        # mix3x3's last prefix game, past the grid, has a stage of its own.
        own_stage = plan.stage_for(plan.num_rounds) is not plan.stage_for(grid[-1])
        assert own_stage == (case == "mix3x3_indirect")
        assert sizes[-1] == 1
    else:
        # Each prefix's 58 games and prefix game: two prefixes fill a stack,
        # and the stage change at round 3 cuts the first stage's third.
        assert plan.punishment[1].first_round == 3
        assert rows == 2 * 29  # 37 moves per deviator, 8 of them M/P twins
        assert sizes == [2 * (rows + 1), rows + 1, 115, 57, 1]


def test_spoiler_grid_builds_no_game_in_the_punishment_chain():
    game, plan = spoiler_3x3(), naive_spoiler_plan(0.1)
    stacks = []
    batch = verifier.punish_batch

    def recorded(utilities, *args):
        stacks.append((utilities, args))
        return batch(utilities, *args)

    with mock.patch.object(verifier, "punish_batch", recorded):
        check_deviations(game, plan)

    def scalar_step(*args, **kwargs):
        raise AssertionError("the punishment chain left the stack")

    kinds = Counter()
    with mock.patch.object(equilibria, "Game", scalar_step), \
            mock.patch.object(equilibria, "enumerate_pure_nash", scalar_step), \
            mock.patch.object(equilibria, "is_nash", scalar_step):
        for utilities, args in stacks:
            kinds.update(punish_batch(utilities, *args).kinds)
    assert kinds["none"] and kinds["pure"]


def _plan_with_rounds(game, rounds, mode, delta):
    """A plan that is only `rounds` on `game`, punished at the first pure
    profile."""
    n = game.num_players
    first = MixedProfile.pure(game.action_counts, (0,) * n)
    stage = PunishmentStage(0, first.supports(), first, (math.inf,) * n)
    return ProtocolPlan("partial_support_disjoint", mode, delta, tuple(rounds),
                        OutcomeTarget((0,) * n, "pareto_improver"), first, (stage,),
                        (), (0.0,) * n, content_hash(game))


def _base_row_cases():
    """Rounds where several payers pledge into one deviator, one payer
    pledges twice at one outcome, and a burn-only round does the same."""
    rng = np.random.default_rng(7)
    o, o2 = (1, 0, 1), (0, 1, 1)
    three = Game(rng.uniform(-3, 3, (3, 2, 2, 2)))
    transfers = [
        CommitmentRound((Pledge(1, o, 0, 0.3), Pledge(2, o, 0, 0.7),
                         Pledge(1, o, BURN, 0.1), Pledge(0, o, 2, 0.2),
                         Pledge(2, o2, 1, 0.9))),
        CommitmentRound((Pledge(2, o, 0, 0.1), Pledge(1, o, 0, 0.2),
                         Pledge(1, o, 0, 0.6), Pledge(0, o2, 1, 0.3))),
    ]
    two = Game(rng.uniform(-3, 3, (2, 3, 3)))
    burns = [
        CommitmentRound((Pledge(0, (1, 1), BURN, 0.3), Pledge(1, (1, 1), BURN, 0.1),
                         Pledge(1, (1, 1), BURN, 0.2), Pledge(1, (0, 2), BURN, 0.4))),
        CommitmentRound((Pledge(1, (2, 2), BURN, 0.25), Pledge(1, (2, 2), BURN, 0.5),
                         Pledge(0, (2, 2), BURN, 0.7))),
    ]
    return [(three, _plan_with_rounds(three, transfers, "transfers", 1.0)),
            (two, _plan_with_rounds(two, burns, "burn_only", 1.0))]


def test_base_rows_fold_the_others_pledges_as_apply_transfers_does():
    order_matters = False
    for game, plan in _base_row_cases():
        n = game.num_players
        games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
        with _recorded_stacks() as stacks, _every_row_searched():
            check_deviations(game, plan, stack=fold_rounds(game, plan.rounds, plan.delta,
                                                           plan.mode))
        sizes = [len(_distinct_moves(game, plan, d)) for d in range(n)]
        # The commitment grid's stacks come first, then the early stops'.
        grid = np.concatenate(stacks)[:len(plan.rounds) * sum(sizes)]
        for k, r in enumerate(plan.rounds):
            for d in range(n):
                others = [p for p in r.pledges if p.payer != d]
                want = reference.apply_transfers(games[k], CommitmentRound(tuple(others)),
                                                 delta=plan.delta, mode=plan.mode).utilities
                noop = grid[k * sum(sizes) + sum(sizes[:d])]  # the deviator's no-op
                assert np.array_equal(noop, want)
                assert noop.tobytes() == want.tobytes()
                backwards = reference.apply_transfers(
                    games[k], CommitmentRound(tuple(others[::-1])), delta=plan.delta,
                    mode=plan.mode).utilities
                order_matters |= backwards.tobytes() != want.tobytes()
    assert order_matters  # the pledge order shows in the bits


@pytest.mark.parametrize("bad_round", [0, 2])
def test_overflowing_base_row_raises_what_apply_transfers_raises(bad_round):
    # 25 outcomes: no combination moves, whose amount is the cap, so only
    # the others' pledges reach the cell at the largest float.
    u = np.random.default_rng(3).uniform(-3, 3, (2, 5, 5))
    u[0, 1, 1] = np.finfo(float).max
    game = Game(u)
    x = 1e300
    # Player 1 burns x at (2, 2) before player 2 pays it back in: the round
    # folds, but without player 1's burn the cell overflows.
    rounds = [CommitmentRound(())] * 3
    rounds[bad_round] = CommitmentRound((Pledge(0, (1, 1), BURN, x),
                                         Pledge(1, (1, 1), 0, x)))
    plan = _plan_with_rounds(game, rounds[:bad_round + 1], "transfers", x)
    stack = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    others = CommitmentRound((plan.rounds[bad_round].pledges[1],))
    with np.errstate(over="ignore"), pytest.raises(GameShapeError) as want:
        apply_transfers(game.with_utilities(stack[bad_round]), others, delta=x,
                        mode="transfers")
    stacks = []
    batch = verifier.punish_batch

    def recorded(utilities, *args):
        stacks.append(len(utilities))
        return batch(utilities, *args)

    with np.errstate(over="ignore"), pytest.raises(GameShapeError) as got, \
            mock.patch.object(verifier, "punish_batch", recorded):
        check_deviations(game, plan, stack=stack, amounts=(1.0,))
    assert str(got.value) == str(want.value) == "utilities must be finite"
    # Each raises in the punishment search, at its finiteness check.
    assert len(stacks) == 1


@pytest.mark.parametrize("case", ["ex4", "spoiler"])
def test_grid_builds_no_per_row_objects(case):
    if case == "ex4":
        game, plan = prize_plan(0.02)
    else:
        game, plan = spoiler_3x3(), naive_spoiler_plan(0.1)
    stack = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    made, stacks, reduced = [], [], []
    finding, batch = verifier.DeviationFinding, verifier.punish_batch
    record_rows = DeviationClassResult.record_rows

    def counted(*args, **kwargs):
        made.append(finding(*args, **kwargs))
        return made[-1]

    def recorded(utilities, *args):
        stacks.append(len(utilities))
        return batch(utilities, *args)

    def reduced_rows(self, rows):
        reduced.append(len(rows))
        record_rows(self, rows)

    def no_game(*args, **kwargs):
        raise AssertionError("the grid built a Game")

    with mock.patch.object(verifier, "DeviationFinding", counted), \
            mock.patch.object(verifier, "punish_batch", recorded), \
            mock.patch.object(DeviationClassResult, "record_rows", reduced_rows), \
            mock.patch.object(Game, "__init__", no_game):
        results = check_deviations(game, plan, stack=stack)
    structural = sum(len(r.structural_failures) for r in results.values())
    scalar = results["continue_when_stop"].checked + results["terminal_action"].checked
    # One worst per stack of findings at most, plus the rows without a
    # punishment and the handful the two small classes record one by one.
    assert len(made) <= len(reduced) + structural + scalar
    if case == "ex4":
        assert (results["commitment"].checked, results["early_stop"].checked) == (13000, 198)
        assert structural == 0
        # No round touches a cell the first stage reads, so every row has
        # the key of a row of prefix 0: its 130 games fall in 98 move
        # classes, and the two deviators' no-op classes and the prefix games
        # are one key.
        assert stacks == [97]
    else:
        assert structural == 574


# Moves that fold to the same game share one stack row.

def test_ex6_stacks_hold_each_distinct_deviation_game_once():
    game = three_player_cycle()
    sigma = MixedProfile.uniform_over((2, 2, 2), [(0, 1)] * 3)
    plan = build_plan(game, sigma, target=(0, 0, 0), delta=0.01)
    with _recorded_stacks() as stacks:
        results = check_deviations(game, plan)
    # Each deviator has two actions, so each of its 16 M moves burns where
    # a P move does: 17 distinct games of 33 moves.
    assert [len(_distinct_moves(game, plan, d)) for d in range(3)] == [17] * 3
    # 51 games per prefix and the prefix games of the 49 early stops, in one
    # stack, less the rows whose bytes (on this full-support stage every
    # cell is read) repeat an earlier row's: one player pledges per round,
    # so at prefix k the two others' no-ops are one game, prefix game k + 1,
    # and the pledging player's no-op is prefix game k.
    assert all(len({p.payer for p in r.pledges}) == 1 for r in plan.rounds)
    assert [len(u) for u in stacks] == [50 * 51 + 49 - 50 - 49 - 49]
    assert results["commitment"].checked == 50 * 99 == 4950


def test_transfers_grid_folds_only_the_burn_twins():
    game, plan = split_plan()
    amounts = (0.5, 1.0)
    games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    with _recorded_stacks() as stacks, _every_row_searched():
        check_deviations(game, plan, amounts=amounts,
                         stack=fold_rounds(game, plan.rounds, plan.delta, plan.mode))
    kept = [_distinct_moves(game, plan, d, amounts) for d in range(2)]
    width = sum(map(len, kept))
    grid = np.concatenate(stacks)[:len(plan.rounds) * width]
    assert len(np.concatenate(stacks)) > len(grid)  # the early stops follow
    for d in range(2):
        moves = commitment_deviation_moves(game, d, plan.delta, plan.mode, amounts)
        names = [name for name, _ in kept[d]]
        dropped = [name for name, _ in moves if name not in names]
        assert len(moves) == 37 and len(dropped) == 8
        # Each dropped move is the burn twin of a kept one: M at o burns at
        # o', the deviator's other action, as P at o' does.
        for name in dropped:
            kind, *o, x = re.fullmatch(r"([MP])\((\d), (\d)\)x(.*)", name).groups()
            o[d] = str(1 - int(o[d]))
            assert f"{'P' if kind == 'M' else 'M'}({o[0]}, {o[1]})x{x}" in names
        assert all(name in names for name, _ in moves if name[0] in "TA")
        # The stack holds the kept moves' games, bit for bit.
        for k, r in enumerate(plan.rounds):
            others = tuple(p for p in r.pledges if p.payer != d)
            rows = grid[k * width + len(kept[0]) * d:][:len(kept[d])]
            for row, (_, pledges) in zip(rows, kept[d]):
                want = reference.apply_transfers(
                    games[k], CommitmentRound(others + tuple(pledges)), delta=plan.delta,
                    mode=plan.mode).utilities
                assert row.tobytes() == want.tobytes()


def test_worst_gain_on_a_folded_twin_names_the_scalar_loops_move():
    game, plan = mismatching_two_by_two(np.random.default_rng(1))
    with _recorded_stacks() as stacks, _recorded_findings() as rows:
        results = check_deviations(game, plan)
    worst = results["commitment"].worst
    x = worst.move.split("x")[1]
    assert (worst.player, worst.move) == (0, f"M(0, 0)x{x}")
    # Its twin P(1, 0)x burns at the same cell and shares its row, so the
    # two gains tie; the first of the two is the worst.
    twin = next(f for f in rows if (f.prefix, f.player, f.move)
                == (worst.prefix, 0, f"P(1, 0)x{x}"))
    assert twin.gain == worst.gain == results["commitment"].worst_gain
    # 17 moves per deviator fold to 9 games; the early stops' prefix games
    # ride in the same stack.  On the plan's one full-support stage every
    # cell is read, so each distinct base row and move class is a key.  The
    # 162 distinct games make 168 keys: 6 times a burn brings a row to the
    # bytes of another key's, another deviator's row or the next prefix game.
    assert len(_distinct_moves(game, plan, 0)) == 9 and len(plan.punishment) == 1
    R = len(plan.rounds)
    with _recorded_stacks() as every, _every_row_searched():
        check_deviations(game, plan)
    assert [len(u) for u in every] == [R * 2 * 9 + R - 1]
    assert len({u.tobytes() for u in every[0]}) == 162
    assert [len(u) for u in stacks] == [168]
    _assert_grids_agree(game, plan)


def test_overflowing_twin_at_a_later_prefix_raises_what_the_scalar_loop_raises():
    # Player 0 burns x at (1, 0) in round 0.  At prefix 0 one more burn of
    # x there stays finite; at prefix 1 it overflows, for M(0, 0)x and its
    # twin P(1, 0)x alike.
    big, x = np.finfo(float).max, 1e300
    u = np.random.default_rng(5).uniform(-3, 3, (2, 2, 2))
    u[0, 1, 0] = -big + 1.5 * x
    game = Game(u)
    rounds = [CommitmentRound((Pledge(0, (1, 0), BURN, x),)), CommitmentRound(())]
    plan = _plan_with_rounds(game, rounds, "transfers", x)
    raised = []
    with np.errstate(over="ignore"):
        with pytest.raises(GameShapeError) as info:
            _scalar_check_deviations(game, plan, amounts=(x,))
        raised.append(str(info.value))
        with _recorded_stacks() as stacks, pytest.raises(GameShapeError) as info:
            check_deviations(game, plan, amounts=(x,))
        raised.append(str(info.value))
    assert raised == ["utilities must be finite"] * 2
    # Both prefixes in one stack, of 21 distinct games of 25 per deviator,
    # then the early stop's prefix game.
    assert [len(u) for u in stacks] == [2 * 2 * 21 + 1]
    assert np.isfinite(stacks[0][:42]).all() and not np.isfinite(stacks[0][42:]).all()


def test_verify_plan_searches_each_prefix_game_once():
    game, plan = prize_plan(0.02)
    budgets = {"budget": 8, "checkpoint_budget": 64}
    with _recorded_stacks() as stacks:
        report = verify_plan(game, plan, **budgets)
    R = len(plan.rounds)
    probed = verifier._prefix_indices(R + 1, budgets["checkpoint_budget"])
    stops = verifier._prefix_indices(R, budgets["budget"])[1:]
    shared = set(probed) | set(stops)
    assert len(shared) < len(probed) + len(stops)
    # No round of ex4 lands on a cell the first stage reads (`test_ex4_
    # verify_searches_only_its_first_stack`), so every grid prefix's rows
    # have the keys of prefix 0's, and every prefix game the key of prefix
    # 0's no-op: one stack, of one row per key.
    grid = verifier._prefix_indices(R, 8)
    assert len(grid) == 9 and len(shared) == 67 and 0 in shared
    # ex4 is 4x4, so no two moves fold alike: one row per move.
    width = report.deviations["commitment"].checked // len(grid)
    assert width == 130
    keyed = _keyed(game, plan, **budgets)
    assert (keyed.head == keyed.want).all() and set(keyed.want[len(grid) * width:]) == {0}
    assert [len(u) for u in stacks] == [keyed.searched] == [97]


@contextlib.contextmanager
def _recorded_rows():
    """Every row the verifier hands `punish_batch`, keyed by its stage and
    bytes, with the row's kind and the bytes of its best-response and
    best-pure-equilibrium payoffs."""
    rows = {}
    batch = verifier.punish_batch

    def recorded(utilities, *args):
        found = batch(utilities, *args)
        for r, u in enumerate(utilities):
            got = (found.kinds[r], found.best_response[r].tobytes(), found.pure_best[r].tobytes())
            assert rows.setdefault((repr(args), u.tobytes()), got) == got
        return found

    with mock.patch.object(verifier, "punish_batch", recorded):
        yield rows


def _two_call_check_deviations(game, plan, *, stack, punishments, **kwargs):
    """`check_deviations` with the prefix searches run first, in calls of
    their own per punishment stage, so the grid's stacks hold deviation
    games only."""
    U = stack
    stops = verifier._prefix_indices(plan.num_rounds, kwargs.get("budget"))[1:]
    wanted = sorted({*stops, *(k for k, found in punishments.items() if found is None)})
    for stage, group in verifier._stage_groups(plan, wanted):
        found = verifier.punish_batch(U[group], stage.supports, stage.seed, stage.ceiling)
        punishments.update(zip(group, zip(found.kinds, found.best_response, found.reasons)))
    return check_deviations(game, plan, stack=stack, punishments=punishments, **kwargs)


def _takeable(rows, plan) -> list[bool]:
    """Per row of `rows`, searched under the plan's first punishment stage,
    whether the other rows of its key may take its search.  A
    taker's game agrees with the row bit for bit on the cells the first
    stage reads, so its search settles alike, with best-response payoffs
    that may differ only in the sign of a 0.0 (`equilibria._first_stage_
    cells`).  The grid reads a search only through the gains best minus
    the on-path payoffs, so a row is takeable when it settles at the first
    stage and flipping the sign of its zero best responses leaves those
    gains' bytes alone.  (The verifier also searches a zero best response
    against an on-path -0.0, whose gain no flip changes; no plan here pays
    one.)"""
    stage, on_path = plan.stage_for(0), np.asarray(plan.expected_terminal_payoffs)
    found = punish_batch(rows, stage.supports, stage.seed, stage.ceiling)
    best = found.best_response
    flipped = np.where(best == 0, -best, best)
    return [kind == "support_solve" and (b - on_path).tobytes() == (f - on_path).tobytes()
            for kind, b, f in zip(found.kinds, best, flipped)]


def _assert_merged_search_matches_separate_calls(game, plan, **kwargs) -> tuple[list, int]:
    """verify_plan's one stack per stage chunk gives the report bytes and,
    row for row, the kinds, best responses and pure_best of separate prefix
    and grid searches; returns the merged run's stacks and the number of
    separate calls.  The separate calls search every prefix game; the merged
    stacks leave out only prefix games, those that take the search of a
    deviation game of their key."""
    with _recorded_stacks() as stacks, _recorded_rows() as merged:
        report = verify_plan(game, plan, **kwargs).to_json()
    with _recorded_stacks() as separate_stacks, _recorded_rows() as separate, \
            mock.patch.object(verifier, "check_deviations", _two_call_check_deviations):
        assert verify_plan(game, plan, **kwargs).to_json() == report
    assert merged.items() <= separate.items()
    prefix_games = fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    assert ({row for _, row in separate.keys() - merged.keys()}
            <= {u.tobytes() for u in prefix_games})
    sizes = [len(u) for u in stacks]
    assert max(sizes) <= verifier.ROW_BUDGET
    assert sum(sizes) <= sum(map(len, separate_stacks))
    return stacks, len(separate_stacks)


MERGED_SEARCH_PLANS = {
    "ex4_budgets": lambda: (*prize_plan(0.02), {"budget": 8, "checkpoint_budget": 64}),
    "ex6": lambda: (three_player_cycle(), build_plan(
        three_player_cycle(), MixedProfile.uniform_over((2, 2, 2), [(0, 1)] * 3),
        target=(0, 0, 0), delta=0.01), {}),
    "spoiler": lambda: (spoiler_3x3(), naive_spoiler_plan(0.1), {}),
    # Checkpoint 51 alone is under a stage of its own, which the grid's
    # prefixes 0, 50 and 99 skip: its search gets a call of its own.
    "own_stage_past_budget": lambda: (
        prize_plan(0.02)[0], _with_stage(prize_plan(0.02)[1], 51, ceiling=(-100.0, -100.0)),
        {"budget": 2}),
}


# The separate searches' calls per plan: one per stage chunk of the prefix
# games, then of the grid.
SEPARATE_CALLS = {"ex4_budgets": 2, "ex6": 2, "spoiler": 3, "own_stage_past_budget": 5}


@pytest.mark.parametrize("case, calls", [("ex4_budgets", 1), ("ex6", 1), ("spoiler", 2),
                                         ("own_stage_past_budget", 3)])
def test_merged_search_matches_separate_calls(case, calls):
    game, plan, kwargs = MERGED_SEARCH_PLANS[case]()
    stacks, separate = _assert_merged_search_matches_separate_calls(game, plan, **kwargs)
    sizes = [len(u) for u in stacks]
    # ex4 with budgets makes one call: no round lands on a cell the first
    # stage reads, so every row has the key of a row of prefix 0
    # (`test_verify_plan_searches_each_prefix_game_once`).
    assert (len(sizes), separate) == (calls, SEPARATE_CALLS[case])
    assert sum(sizes) == _keyed(game, plan, **kwargs).searched
    if case == "ex4_budgets":
        assert sizes == [97]
    if case == "own_stage_past_budget":
        # Grid prefix 0 with prefix games 1-50, then checkpoint 51 under its
        # own stage, then grid prefix 99 with prefix games 52-100 under the
        # stage after it, whose keys are its own.
        assert plan.stage_for(51).first_round == 51 and sizes == [97, 1, 97]
    if case == "spoiler":
        # The spoiler's ten rounds stay off the cells the first stage reads:
        # every row has the key of a row of prefix 0, whose 254 games and
        # prefix game make 59 keys.  The second stack holds the other rows
        # of the keys whose first row did not settle at the first stage (the
        # on-path payoffs (6, 6) are not 0.0, so no zero best response keeps
        # a search from being taken).
        kept = _takeable(stacks[0], plan)
        assert len(plan.rounds) == 10 and sizes == [59, 552] and not all(kept)


def test_merged_search_matches_separate_calls_on_seeded_2x2_plans():
    rng = np.random.default_rng(1)
    for _ in range(20):
        stacks, separate = _assert_merged_search_matches_separate_calls(
            *mismatching_two_by_two(rng))
        assert (len(stacks), separate) == (1, 2)


@pytest.mark.parametrize("case, prefixes", [("mix3x3_indirect", 1), ("welfare_then_burn", 2)])
def test_merged_search_matches_separate_calls_in_small_chunks(monkeypatch, case, prefixes):
    # mix3x3's last prefix game has a stage of its own; welfare_then_burn's
    # stage change at round 3 cuts a chunk.
    game, plan = CHUNK_CASES[case]()
    rows = sum(len(_distinct_moves(game, plan, d)) for d in range(game.num_players))
    monkeypatch.setattr(verifier, "ROW_BUDGET", prefixes * (rows + 1))
    stacks, separate = _assert_merged_search_matches_separate_calls(game, plan)
    assert len(stacks) < separate


def test_ex4_verify_searches_only_its_first_stack():
    game, plan = prize_plan(0.02)
    stage = plan.punishment[0]
    assert len(plan.punishment) == 1 and len(plan.rounds) == 100
    read = equilibria._first_stage_cells((2, 4, 4), stage.supports)
    assert read.sum() == 24
    # Every pledge of the plan lands off those 24 cells, so every row has
    # the bytes there of a row of prefix 0.
    for r in plan.rounds:
        for p in r.pledges:
            assert not read.reshape(2, 4, 4)[(p.payer, *p.outcome)]
    with _recorded_stacks() as stacks:
        report = verify_plan(game, plan)
    # One stack holds the 97 keys of prefix 0's 130 moves and prefix games;
    # all of them settle at the first stage, and every other of the 13,101
    # rows takes the search of its key, so no later stack is built.
    assert [len(u) for u in stacks] == [97]
    assert report.accepted
    assert report.deviations["commitment"].punishment_kinds == {"support_solve": 13000}
    assert report.deviations["early_stop"].punishment_kinds == {"support_solve": 198}


def test_spoiler_unsettled_rows_search_alike_alone_and_in_their_stack(monkeypatch):
    game, plan = spoiler_3x3(), naive_spoiler_plan(0.1)
    with _recorded_stacks() as stacks:
        verify_plan(game, plan)
    stage = plan.stage_for(0)
    args = (stage.supports, stage.seed, stage.ceiling)
    chunk = stacks[0]
    open_rows = ~first_stage_batch(chunk, *args).settled
    found, runs = {}, {}
    for name, rows in (("chunk", chunk), ("alone", chunk[open_rows])):
        sizes, solve = [], equilibria._solve

        def counted(system, *a, **kw):
            sizes.append(len(system.utilities))
            return solve(system, *a, **kw)

        monkeypatch.setattr(equilibria, "_solve", counted)
        found[name] = punish_batch(rows, *args)
        monkeypatch.undo()
        runs[name] = sizes[1:]  # the first is the first stage's
    # 28 rows of the first stack's 59 keys leave the first stage; whether the
    # stack holds only them or the whole stack, their enumeration runs hold
    # the same (pattern, game) pairs, and their results are the same bytes.
    assert (len(chunk), open_rows.sum()) == (59, 28) and len(runs["alone"]) > 1
    assert runs["chunk"] == runs["alone"]
    chunk_found, alone = found["chunk"], found["alone"]
    picked = np.flatnonzero(open_rows)
    assert [chunk_found.kinds[r] for r in picked] == list(alone.kinds)
    assert [chunk_found.reasons[r] for r in picked] == list(alone.reasons)
    assert Counter(alone.kinds) == {"none": 28}
    for name in ("best_response", "payoffs", "pure_best"):
        assert getattr(chunk_found, name)[picked].tobytes() == getattr(alone, name).tobytes()
    for got, want in zip(chunk_found.profiles, alone.profiles):
        assert got[picked].tobytes() == want.tobytes()


def _middle_round_on_a_read_cell():
    """ex4 at delta 0.05 with one more round in the middle, in which player 1
    burns delta / 2 at (1, 1), a cell the first stage reads: the rows from
    that round's prefix on have keys of their own."""
    game, plan = prize_plan(0.05)
    m = len(plan.rounds) // 2
    burn = CommitmentRound((Pledge(0, (0, 0), BURN, plan.delta / 2),))
    return game, dataclasses.replace(plan, rounds=(*plan.rounds[:m], burn, *plan.rounds[m:]))


def _pure_punished(game, rounds, mode, delta, **changes):
    """`game` and the plan of `_plan_with_rounds`, with every player's
    ceiling at 3.0 and the plan's fields `changes` replaced."""
    plan = _plan_with_rounds(game, rounds, mode, delta)
    stage = dataclasses.replace(plan.punishment[0], ceiling=(3.0,) * game.num_players)
    return game, dataclasses.replace(plan, punishment=(stage,), **changes)


def _cell_at(fraction):
    """40 empty rounds punished at the pure (1, 1), on a game where player 1
    gets `fraction` of the largest float, negated, at (2, 2), a cell the first
    stage does not read: every row has the key of a row of prefix 0, and
    stays within half the float range."""
    u = np.random.default_rng(11).uniform(-3, 3, (2, 2, 2))
    u[0, :, 0], u[1, 0, :] = (2.0, 1.0), (2.0, 1.0)  # (1, 1) is Nash
    u[0, 1, 1] = -fraction * float(np.finfo(float).max)
    return _pure_punished(Game(u), [CommitmentRound(())] * 40, "transfers", 1.0)


def _ex3_auto():
    """ex3 as `plan --payoffs 4,3 --delta auto` builds it: its punishment is
    pure and pays (0, 0), against on-path payoffs (4, 3)."""
    game = unfair_split()
    return game, protocols.choose_delta(game, MixedProfile.pure((2, 2), (0, 0)),
                                        payoffs=(4.0, 3.0))[1]


def _cells_past_half_the_float_range():
    """40 rounds punished at the pure (1, 1), of which round 20 has player 1
    burn 0.3 of the largest float at (2, 2), a cell the first stage does
    not read: from prefix 21 on, a move of player 1 that burns or pays
    delta at (2, 2) takes that cell past half the float range."""
    big = float(np.finfo(float).max)
    u = np.random.default_rng(11).uniform(-3, 3, (2, 2, 2))
    u[0, :, 0], u[1, 0, :] = (2.0, 1.0), (2.0, 1.0)  # (1, 1) is Nash
    rounds = [CommitmentRound(())] * 40
    rounds[20] = CommitmentRound((Pledge(0, (1, 1), BURN, 0.3 * big),))
    return _pure_punished(Game(u), rounds, "transfers", 0.3 * big)


REUSE_PLANS = {
    "ex4_400_rounds": lambda: prize_plan(0.005),
    "cells_past_half_the_float_range": _cells_past_half_the_float_range,
    "cell_at_0.2_of_the_float_range": lambda: _cell_at(0.2),
    "cell_at_0.3_of_the_float_range": lambda: _cell_at(0.3),
    "middle_round_on_a_read_cell": _middle_round_on_a_read_cell,
    "ex3_auto": _ex3_auto,
    "spoiler": lambda: (spoiler_3x3(), naive_spoiler_plan(0.1)),
}


@pytest.mark.parametrize("case", sorted(REUSE_PLANS))
def test_taken_searches_match_scalar_loop(case):
    game, plan = REUSE_PLANS[case]()
    kinds = _assert_grids_agree(game, plan)
    with _recorded_stacks() as stacks:
        report = verify_plan(game, plan)
    sizes = [len(u) for u in stacks]
    R = len(plan.rounds)
    width = sum(len(_distinct_moves(game, plan, d)) for d in range(game.num_players))
    keyed = _keyed(game, plan)
    assert (keyed.head == keyed.want).all() and sum(sizes) == keyed.searched
    # A prefix past the magnitude guard (a quarter of the largest float)
    # takes nothing: with no prefix within it, every row is searched.
    every_row = R * width + R + 1
    if case == "ex4_400_rounds":
        assert R > 400 and sizes == [97] and kinds["support_solve"] == 2 * R * 66 - 2
    elif case.startswith("cell_at_"):
        # At 0.2 of the largest float every prefix is within the guard, and
        # the rows of all 40 empty rounds have the keys of prefix 0's: 25.
        # At 0.3 none is, so every row is its own key, in one stack.
        assert set(kinds) == {"support_solve", "n/a"}
        if case.startswith("cell_at_0.2"):
            assert sizes == [25]
        else:
            assert sizes == [every_row] and every_row <= verifier.ROW_BUDGET
    elif case == "middle_round_on_a_read_cell":
        # The rows of prefixes 0-19 have 97 keys, those of prefix 0.  The
        # middle round, round 20, burns at a read cell: prefix 20's rows of
        # player 2, whose base rows hold that burn, make 49 keys more, one
        # per class: their no-op class holds the read bytes of player 1's
        # burn of delta / 2 at (1, 1) at prefix 0, but a pattern of its own.
        # Player 1's rows from prefix 21 on make another 48: their no-op
        # class has the key of prefix 20's player-2 no-op rows, whose base
        # rows have the same bytes.
        assert (R, width) == (41, 130) and sizes == [97 + 49 + 48]
    elif case == "ex3_auto":
        # One stack of the first stage's 25 keys, then the last prefix game
        # under a stage of its own.  The pure punishment pays (0, 0) and 19
        # of the 25 have a best response of 0.0, but no on-path payoff is
        # 0.0, so a zero's sign changes no gain: every search is kept.
        assert (R, width) == (47, 58) and plan.stage_for(R) is not plan.stage_for(0)
        assert plan.expected_terminal_payoffs == (4.0, 3.0)
        stage = plan.stage_for(0)
        found = punish_batch(stacks[0], stage.supports, stage.seed, stage.ceiling)
        assert (found.best_response == 0).any(axis=1).sum() == 19
        assert all(_takeable(stacks[0], plan)) and sizes == [25, 1]
    elif case == "cells_past_half_the_float_range":
        # Round 20's burn and every move's delta are 0.3 of the largest
        # float, so no prefix is within the guard: every row is searched,
        # each one past half the float range among them.
        def past_half(us):
            half = np.finfo(float).max / 2
            return sum(int((np.abs(u).reshape(len(u), -1).max(axis=1) > half).sum())
                       for u in us)

        assert sizes == [every_row] and past_half(stacks) > 0
    else:
        # 59 keys, then the 552 other rows of the keys whose first row did
        # not settle at the first stage.
        assert sizes == [59, 552]
        assert kinds["unavailable"] == 574 == len(
            report.deviations["commitment"].structural_failures)


# Per plan, with the budget of one grid prefix's rows and its prefix game
# per stack: the stacks' sizes.
SMALL_STACKS = {
    # Prefix 0's 97 keys; then the 49 of prefix 20 and the 48 of prefix 21,
    # which pass the budget together with prefix 0's.
    "middle_round_on_a_read_cell": (_middle_round_on_a_read_cell, [97, 97]),
    # Prefix 0's 59 keys; then the 552 other rows of the keys whose first
    # row did not settle at the first stage, about 60 per prefix.
    "spoiler": (lambda: (spoiler_3x3(), naive_spoiler_plan(0.1)), [59, 204, 232, 116]),
}


@pytest.mark.parametrize("case", sorted(SMALL_STACKS))
def test_small_stacks_match_scalar_loop(monkeypatch, case):
    make, want = SMALL_STACKS[case]
    game, plan = make()
    width = sum(len(_distinct_moves(game, plan, d)) for d in range(2))
    monkeypatch.setattr(verifier, "ROW_BUDGET", width + 1)
    recorded, record_rows = [], DeviationClassResult.record_rows

    def logged(self, rows):
        recorded.append((rows.moves[0], list(rows.prefixes)))
        record_rows(self, rows)

    # The report bytes (each class's worst finding too), the rows and the
    # histograms match the scalar loop's, which records no stack of rows
    # and searches nothing through `punish_batch`.
    with mock.patch.object(DeviationClassResult, "record_rows", logged), \
            _recorded_stacks() as stacks:
        _assert_grids_agree(game, plan)
    # The grid's findings are recorded once, prefix-major, after every search.
    assert recorded == [("noop", list(range(len(plan.rounds)))),
                        ("stop", list(range(1, len(plan.rounds))))]
    assert [len(u) for u in stacks] == want and max(want) <= width + 1


def _logged(log: list, groups):
    """`groups` passed through, each (stage, group) appended to `log`."""
    for stage, group in groups:
        log.append((stage, list(group)))
        yield stage, group


# Hand-made chunkings, prefix 2p at place p: (budget, first rounds of the
# stages, rows per place, the groups by place).
GROUPING_CASES = {
    # Places 1 and 4 are wider than the budget and alone in their chunks.
    "wider_than_the_budget": (10, [0], [3, 12, 2, 2, 11, 1], [[0], [1], [2, 3], [4], [5]]),
    "fills_the_budget_exactly": (10, [0], [4, 6, 1, 9, 5, 5], [[0, 1], [2, 3], [4, 5]]),
    # Prefix 6 (place 3) begins a stage inside what would fit one chunk.
    "stage_change_mid_run": (10, [0, 6], [1] * 8, [[0, 1, 2], [3, 4, 5, 6, 7]]),
}


@pytest.mark.parametrize("case", sorted(GROUPING_CASES))
def test_array_grouping_matches_scalar_loop_on_hand_made_rows(monkeypatch, case):
    budget, firsts, need, want = GROUPING_CASES[case]
    monkeypatch.setattr(verifier, "ROW_BUDGET", budget)
    plan = SimpleNamespace(punishment=tuple(SimpleNamespace(first_round=f) for f in firsts))
    ks = [2 * p for p in range(len(need))]

    def by_place(groups) -> list:
        return [(plan.punishment.index(stage), [k // 2 for k in group]) for stage, group in groups]

    array = by_place(verifier._stage_groups(plan, ks, np.array(need)))
    assert array == by_place(reference.stage_groups(plan, ks, budget, lambda k: need[k // 2]))
    assert [group for _, group in array] == want
    assert [group for _, group in reference.stage_groups(plan, ks, budget)] == [
        group for _, group in verifier._stage_groups(plan, ks)]


@pytest.mark.parametrize("budget", [150, 600])
@pytest.mark.parametrize("case", sorted(REUSE_PLANS))
def test_array_grouping_matches_scalar_loop_on_reuse_plans(case, budget):
    # At these budgets the plans whose rows are their own keys, past the
    # magnitude guard, take several chunks, and so do the spoiler's rows
    # whose keys' searches are not kept; the scalar loop asks for each
    # prefix's rows one at a time.
    game, plan = REUSE_PLANS[case]()
    stage_groups, array, scalar = verifier._stage_groups, [], []

    def scalar_groups(plan, ks, rows=None):
        place = {k: i for i, k in enumerate(ks)}
        one = rows is not None and (lambda k: int(rows[place[k]]))
        return _logged(scalar, reference.stage_groups(plan, ks, verifier.ROW_BUDGET, one))

    with mock.patch.object(verifier, "ROW_BUDGET", budget):
        with mock.patch.object(verifier, "_stage_groups",
                               lambda *args: _logged(array, stage_groups(*args))):
            report = verify_plan(game, plan).to_json()
        with mock.patch.object(verifier, "_stage_groups", scalar_groups):
            assert verify_plan(game, plan).to_json() == report
    assert array == scalar
    if case.startswith(("cell_at_0.3", "cells_past")) or case == "spoiler":
        assert len(array) > 2


# The reuse plans, with ex5 as `plan --delta auto` builds it (cap 0.05, 40
# rounds), ex6 at delta 0.01, and the first seeded 2x2 plan, whose burns
# bring rows to the bytes of other keys' rows.
WAITING_PLANS = {
    **REUSE_PLANS,
    "ex5_auto": lambda: (cyclic_with_prize_overlap(), build_plan(
        cyclic_with_prize_overlap(), MixedProfile.uniform_over((4, 4), [(0, 1, 2), (0, 1, 2)]),
        target=(3, 2), delta=0.05)),
    "ex6": lambda: MERGED_SEARCH_PLANS["ex6"]()[:2],
    "2x2_first": lambda: _seeded_two_by_two(1),
}


@pytest.mark.parametrize("case", sorted(WAITING_PLANS))
def test_keys_partition_the_guarded_rows_as_np_unique_does(case):
    # Every row's key is the first row of its stage with its bytes on the
    # cells the first stage reads, among all rows within the magnitude
    # guard (`_keyed`), and the reports do not depend on the budget.
    game, plan = WAITING_PLANS[case]()
    keyed = _keyed(game, plan)
    assert (keyed.head == keyed.want).all()
    report = verify_plan(game, plan).to_json()
    for budget in (150, 1024, 3072):
        with mock.patch.object(verifier, "ROW_BUDGET", budget):
            assert verify_plan(game, plan).to_json() == report


def test_ex5_read_cells_are_told_apart_without_np_unique(monkeypatch):
    # ex5's first stack with every row searched, on the 24 cells its first
    # stage reads: 23 prefixes of 131 rows, many of them alike there.  Rows
    # of one hash are compared word for word, and should two patterns share
    # a hash, np.unique would decide; no two do.
    game, plan = WAITING_PLANS["ex5_auto"]()
    with _recorded_stacks() as stacks, _every_row_searched():
        verify_plan(game, plan)
    read = equilibria._first_stage_cells(game.utilities.shape, plan.stage_for(0).supports)
    block = np.ascontiguousarray(stacks[0].reshape(len(stacks[0]), -1)[:, read])
    assert block.shape == (23 * 131, 24) and len(plan.punishment) == 1
    calls, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    first, index = equilibria._distinct_rows(block)
    monkeypatch.undo()
    assert not calls
    _, want, inverse = np.unique(block.view(np.uint64), axis=0, return_index=True,
                                 return_inverse=True)
    assert (first[index] == want[inverse.ravel()]).all() and len(first) < len(block)


@pytest.mark.parametrize("case", sorted(WAITING_PLANS))
def test_no_stack_holds_two_rows_of_one_key(case):
    # Every key's first row is searched once, before any row takes, and a
    # key's other rows reach a stack only where its first row's search is
    # not kept; no row is searched twice.
    game, plan = WAITING_PLANS[case]()
    built, build = [], verifier._GridRows.build

    def spied(self, rows):
        built.append(rows.copy())
        return build(self, rows)

    with mock.patch.object(verifier._GridRows, "build", spied):
        verify_plan(game, plan)
    keyed = _keyed(game, plan)
    searched = np.concatenate(built)
    assert len(searched) == keyed.searched == len(set(searched.tolist()))
    for rows in built:
        keys = Counter(keyed.want[rows].tolist())
        assert all(count == 1 or key not in keyed.kept for key, count in keys.items())
    assert {r for r in searched.tolist() if keyed.want[r] in keyed.kept} == keyed.kept


def test_choose_delta_verifies_ex3_in_at_most_three_stacks():
    # ex3 as `plan --payoffs 4,3 --delta auto` builds it: the first cap
    # passes, and on choose_delta's budgets every row has the key of a row
    # of prefix 0, whose 58 games and prefix game make 25 keys, every one
    # kept; then the last prefix game under a stage of its own.
    game = unfair_split()
    with _recorded_stacks() as stacks:
        delta, plan = protocols.choose_delta(game, MixedProfile.pure((2, 2), (0, 0)),
                                             payoffs=(4.0, 3.0))
    assert delta == 0.01 * game.utility_range and protocols.DELTA_SEARCH_BUDGET == 8
    sizes = [len(u) for u in stacks]
    assert len(sizes) <= 3 and sizes == [25, 1]


def _zero_on_path():
    """Ten rounds on a 2x2 game punished at the pure (1, 1), where player
    1's on-path payoff is exactly 0.0 and player 2's 1.0: at (1, 1) both
    players' best responses pay exactly 0.0, and so do those of many moves.
    Round 1 has player 1 burn 0.75 at (1, 2), a cell the first stage does
    not read, taking it from 0.5 to -0.25: its product with the probability
    +0.0 turns from +0.0 to -0.0, the case in which the sign of a 0.0 best
    response may differ between a prefix and the first prefix of its run."""
    u = np.array([[[0.0, 0.5], [-1.0, 2.0]], [[0.0, -1.0], [1.0, 2.0]]])
    rounds = [CommitmentRound((Pledge(0, (0, 1), BURN, 0.75),))] + [CommitmentRound(())] * 9
    return _pure_punished(Game(u), rounds, "transfers", 1.0,
                          expected_terminal_payoffs=(0.0, 1.0))


def test_zero_best_responses_against_a_zero_on_path_payoff_are_searched():
    # A taker's gain best - on-path would carry the sign of its key's 0.0
    # best response, not of its own, where the on-path payoff is 0.0 too.
    # Round 1 burns off the read cells, so every row has the key of a row of
    # prefix 0, whose 58 games and prefix game make 25 keys.  Only the keys
    # whose best response for player 1 is not 0.0 are kept, player 2's 0.0s
    # against its on-path 1.0 included; the other rows of the others, every
    # prefix game among them (the no-op's key), are searched.
    game, plan = _zero_on_path()
    with _recorded_stacks() as stacks:
        report = verify_plan(game, plan).to_json()
    stage = plan.stage_for(0)
    found = punish_batch(stacks[0], stage.supports, stage.seed, stage.ceiling)
    zero = found.best_response == 0
    assert len(stacks[0]) == 25 and set(found.kinds) == {"support_solve"}
    assert (zero[:, 1] & ~zero[:, 0]).any() and zero[0, 0]
    kept = _takeable(stacks[0], plan)
    assert kept == (~zero[:, 0]).tolist() and kept.count(True) == 10
    keyed = _keyed(game, plan)
    assert keyed.kept == set(np.flatnonzero(keyed.want == np.arange(len(keyed.want)))[kept])
    assert [len(u) for u in stacks] == [25, keyed.searched - 25] == [25, 426]
    with _every_row_searched():
        assert verify_plan(game, plan).to_json() == report
    _assert_grids_agree(game, plan)


CLASS_PLANS = {
    "ex3_auto": _ex3_auto,
    "ex4": lambda: prize_plan(0.02),
    "ex5_auto": lambda: WAITING_PLANS["ex5_auto"](),
    "ex6": lambda: MERGED_SEARCH_PLANS["ex6"]()[:2],
    "mix3x3_indirect": lambda: CHUNK_CASES["mix3x3_indirect"](),
    "spoiler": lambda: (spoiler_3x3(), naive_spoiler_plan(0.1)),
}


@pytest.mark.parametrize("grid", ["default", "delta_only"])
@pytest.mark.parametrize("case", sorted(CLASS_PLANS))
def test_move_classes_match_their_definition(case, grid):
    # Under every stage, each distinct game's class head is the first game
    # of its deviator with the same edits of the cells the first stage
    # reads.  With the amounts (delta,), a combination's amount equals the
    # other moves', so a combination may join their classes.
    game, plan = CLASS_PLANS[case]()
    amounts = None if grid == "default" else (plan.delta,)
    xs = (*(amounts or (plan.delta / 2, plan.delta)), plan.delta)
    sizes = []
    for stage in plan.punishment:
        got = verifier._move_classes(game.action_counts, plan.mode, tuple(map(xs.index, xs)),
                                     tuple(map(tuple, stage.supports)))
        want = _classes(game, plan, stage, amounts)
        assert (list(range(len(want))) if got is None else got.tolist()) == want
        sizes.append(len(set(want)))
    if case == "ex6":  # full support: every cell is read
        assert got is None
    if case == "ex4" and grid == "default":
        assert sizes == [98]
    if case == "ex3_auto":  # combinations join other moves' classes; the reports agree
        _assert_grids_agree(game, plan, amounts=amounts)


# cli-auto's two plans, as `plan ... --delta auto` builds them.
CLI_AUTO_PLANS = {
    "ex3": ("ex3", ["--payoffs", "4,3"]),
    "ex5": ("ex5", ["--target", "4,3", "--sigma",
                    "0.3333333333333333,0.3333333333333333,0.3333333333333334,0;"
                    "0.3333333333333333,0.3333333333333333,0.3333333333333334,0"]),
}


@pytest.mark.parametrize("case", sorted(CLI_AUTO_PLANS))
def test_cli_auto_plans_search_pinned_rows(tmp_path, capsys, case):
    # The rows each verify of `plan --delta auto` and of `verify` searches,
    # per stack: choose_delta's budgeted verify of each cap it tries, the
    # plan's report, then the verify command's report.
    from commitment_games import cli

    key, args = CLI_AUTO_PLANS[case]
    game_path, plan_path = str(tmp_path / "game.json"), str(tmp_path / "plan.json")
    verify, calls = verifier.verify_plan, []

    def recorded(*a, **kwargs):
        with _recorded_stacks() as stacks:
            report = verify(*a, **kwargs)
        calls.append((kwargs.get("budget"), [len(u) for u in stacks]))
        return report

    with mock.patch.object(verifier, "verify_plan", recorded), \
            mock.patch.object(cli, "verify_plan", recorded):
        assert cli.main(["export", key, "-o", game_path]) == 0
        assert cli.main(["plan", game_path, *args, "--delta", "auto", "-o", plan_path]) == 0
        assert cli.main(["verify", game_path, plan_path]) == 0
    capsys.readouterr()
    game, plan = load_game(game_path), load_plan(plan_path)
    R, width = len(plan.rounds), sum(len(_distinct_moves(game, plan, d)) for d in range(2))
    heads = _heads(game, plan, plan.stage_for(0))
    assert protocols.DELTA_SEARCH_BUDGET == 8
    full = _keyed(game, plan)
    assert (full.head == full.want).all() and sum(calls[-1][1]) == full.searched
    if case == "ex3":
        # The first cap passes.  47 rounds, 58 distinct moves in 26 classes;
        # every round stays off the cells the first stage reads, so every
        # row has the key of a row of prefix 0: the two deviators' no-op
        # classes and the prefix games make one key, 25 in all.  The pure
        # punishment pays (0, 0) against on-path payoffs (4, 3), so every
        # search is kept, under the budget as on the full grid.  The last
        # prefix game is under a stage of its own.
        assert (R, width, heads) == (47, 58, 26)
        assert calls == [(8, [25, 1]), (None, [25, 1]), (None, [25, 1])]
    else:
        # The first cap passes.  40 rounds, 130 distinct moves in 98 classes:
        # the 32 that burn only where the opponent plays its 4th action, off
        # its support, join the no-op's.  Every round burns player 1's
        # payoffs against player 2's support actions, a read cell, so each
        # prefix's base rows have patterns of their own, and its rows a key
        # per class; but a no-op class's rows have the key of their base
        # row's pattern, and player 2's base row at prefix k, player 1's at
        # prefix k + 1 and prefix game k + 1 hold the same read bytes.  So
        # prefix 0 has 98 keys and each later prefix 97 more.  Every search
        # settles at the first stage and is kept.  Under the budget (64
        # checkpoints) the keys of the 9 grid prefixes and the 41 prefix
        # games make one stack; on the full grid the 3,881 keys fill one
        # stack up to ROW_BUDGET, at a prefix's end.
        assert (R, width, heads) == (40, 130, 98)
        assert calls == [(8, [905]), (None, [3008, 873]), (None, [3008, 873])]


def _seeded_two_by_two(draw: int):
    """The `draw`-th plan of `mismatching_two_by_two` under NumPy seed 1."""
    rng = np.random.default_rng(1)
    for _ in range(draw):
        game, plan = mismatching_two_by_two(rng)
    return game, plan


def _read_cell_transfer_at_a_grid_prefix():
    """Nine rounds on a 2x2 game punished at the pure (1, 1), all empty but
    round 7, in which player 1 pays player 2 0.25 at (1, 1), a cell both
    players' first stage reads.  (1, 1) stays Nash under every move, by a
    margin of 2.5.  The grid prefixes under a budget of 3 are 0, 3, 6 and
    8: player 2's deviation games at prefix 6 hold that round's pledge,
    which raises its best response from -0.5 to -0.25, the largest gain of
    the grid, first reached there.  So player 2's rows at prefix 6 have
    keys of their own, though rounds 4-6 leave the read cells alone."""
    u = np.array([[[-0.5, 0.3], [-3.0, 2.0]], [[-0.5, -3.0], [1.0, 2.0]]])
    rounds = [CommitmentRound(())] * 9
    rounds[6] = CommitmentRound((Pledge(0, (0, 0), 1, 0.25),))
    return _pure_punished(Game(u), rounds, "transfers", 1.0)


# The reuse plans, ex5 as `plan --delta auto` builds it, the first two
# seeded 2x2 plans, and a plan whose round at a grid prefix updates a read
# cell.
BUDGETED_PLANS = {
    **REUSE_PLANS,
    "ex5_auto": WAITING_PLANS["ex5_auto"],
    "2x2_first": lambda: _seeded_two_by_two(1),
    "2x2_second": lambda: _seeded_two_by_two(2),
    "read_cell_transfer_at_a_grid_prefix": _read_cell_transfer_at_a_grid_prefix,
}


@pytest.mark.parametrize("budget", [3, 8])
@pytest.mark.parametrize("case", sorted(BUDGETED_PLANS))
def test_budgeted_reports_match_every_row_searched(case, budget):
    # Under a grid budget, grid prefixes far apart may still share keys and
    # take each other's searches.  The reports are those of the run in which
    # every row is its own key, which searches every row, and of the scalar
    # loop.
    game, plan = BUDGETED_PLANS[case]()
    for checkpoint_budget in (None, 5, 64):
        kwargs = {"budget": budget, "checkpoint_budget": checkpoint_budget}
        with _recorded_stacks() as stacks:
            report = verify_plan(game, plan, **kwargs).to_json()
        with _recorded_stacks() as every, _every_row_searched():
            assert verify_plan(game, plan, **kwargs).to_json() == report
        assert sum(map(len, stacks)) <= sum(map(len, every))
        _assert_grids_agree(game, plan, **kwargs)


FMAX = float(np.finfo(float).max)
# Cells around the IEEE cases the take rule argues over: signed zeros, the
# smallest subnormal, and magnitudes near the magnitude guard.
FUZZ_CELLS = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0, -3.0, 5e-324,
              0.2 * FMAX, -0.2 * FMAX, 0.3 * FMAX, -0.3 * FMAX)
FUZZ_GRIDS = ({}, {"budget": 3}, {"budget": 2, "checkpoint_budget": 3})


def _fuzz_plan(draw):
    """A drawn game, 2-24 rounds of 0-3 pledges of delta/4, delta/2 or
    delta, and the plan of `_pure_punished` on them with drawn on-path
    payoffs."""
    from hypothesis import strategies as st

    counts = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]))
    n = len(counts)
    cells = st.lists(st.sampled_from(FUZZ_CELLS), min_size=n * math.prod(counts),
                     max_size=n * math.prod(counts))
    u = np.array(draw(cells)).reshape(n, *counts)
    if draw(st.booleans()):
        # Half the games make the punishment's profile a Nash equilibrium
        # under its ceiling of 3, so that the first stage settles its rows
        # and some rows take: the cells stay in FUZZ_CELLS.
        for i in range(n):
            at = (i, *(0,) * n)
            u[at] = min(u[at], 3.0)
            column = (i, *(slice(None) if j == i else 0 for j in range(n)))
            u[column] = np.minimum(u[column], u[at])
    mode = draw(st.sampled_from(["transfers", "burn_only"]))
    delta = draw(st.sampled_from([0.5, 1.0, 0.25 * FMAX]))

    @st.composite
    def pledge(draw):
        payer = draw(st.integers(0, n - 1))
        others = [r for r in range(n) if r != payer] if mode == "transfers" else []
        return Pledge(payer, draw(st.sampled_from(list(np.ndindex(*counts)))),
                      draw(st.sampled_from([BURN, *others])),
                      delta * draw(st.sampled_from([0.25, 0.5, 1.0])))

    rounds = draw(st.lists(st.lists(pledge(), max_size=3), min_size=2, max_size=24))
    on_path = tuple(draw(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])) for _ in range(n))
    return _pure_punished(Game(u), [CommitmentRound(tuple(r)) for r in rounds], mode, delta,
                          expected_terminal_payoffs=on_path)


def _report_or_error(game, plan, **kwargs):
    """The report bytes of `verify_plan`, or the type and text of the
    documented error it raises."""
    try:
        return verify_plan(game, plan, **kwargs).to_json()
    except GameShapeError as exc:
        return type(exc), str(exc)


def test_takes_match_every_row_searched_hypothesis():
    # Every draw is compared, whatever it makes: a refused round, a row past
    # the float range, or a zero best response against a zero on-path payoff.
    # The punishment search itself overflows on some games with cells near
    # the float range (see CHANGES); its NumPy warnings are silenced here,
    # so that the reports are still compared.
    from hypothesis import given, settings
    from hypothesis import strategies as st

    outcomes = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def run(data):
        game, plan = _fuzz_plan(data.draw)
        for grid in FUZZ_GRIDS:
            with _recorded_stacks() as stacks, np.errstate(all="ignore"):
                got = _report_or_error(game, plan, **grid)
            with _recorded_stacks() as every, _every_row_searched(), np.errstate(all="ignore"):
                assert _report_or_error(game, plan, **grid) == got
            outcomes["error" if isinstance(got, tuple) else "report"] += 1
            outcomes["took"] += sum(map(len, stacks)) < sum(map(len, every))

    run()
    assert outcomes["took"] and outcomes["report"]


def test_an_accepted_verify_names_no_move():
    game, plan = prize_plan(0.02)
    names = verifier._MoveGrid.names
    with mock.patch.object(verifier._MoveGrid, "names", autospec=True,
                           side_effect=names) as spy:
        assert verify_plan(game, plan).accepted
        assert spy.call_count == 0
        # The spoiler names its worst finding and its 574 structural
        # failures as before names were made on demand.
        found = verify_plan(spoiler_3x3(), naive_spoiler_plan(0.1)).deviations["commitment"]
        assert spy.call_count == 0
    assert found.worst == DeviationFinding(3.0, 0, 0, "P(0, 0)x0.05", "unavailable", True)
    failures = repr([(f.prefix, f.player, f.move) for f in found.structural_failures])
    assert len(found.structural_failures) == 574
    assert hashlib.sha256(failures.encode()).hexdigest() == (
        "f9efb85fbc1c5121a6efd40f27be0630395e2282313e6ad82eb3c4f9f979c17f")
    amounts = (plan.delta / 2, plan.delta)
    for d in range(2):
        got = commitment_deviation_moves(game, d, plan.delta, plan.mode, amounts)
        want = reference.commitment_deviation_moves(game, d, plan.delta, plan.mode, amounts)
        assert [name for name, _ in got] == [name for name, _ in want]


def _random_plan(rng, counts):
    """A random game with a full-support equilibrium and a plan (toward a
    Pareto-improving pure outcome, or a transfers plan to a welfare split).

    Transfers plans are drawn for 2x2 and 3x3 games only: a 4x4 or
    three-player transfers grid can send hundreds of rows per prefix
    through the fallback chain, which takes seconds per plan.
    """
    while True:
        if len(counts) == 2:
            game, sigma = full_support_two_player(rng, actions=counts[0])
        else:
            game, sigma = full_support_multiplayer(rng, players=len(counts))
        delta = float(rng.choice([0.05, 0.1, 0.25]))
        split = None
        if counts in ((2, 2), (3, 3)) and rng.random() < 0.5:
            split = feasible_payoff_split(rng, game, sigma)
        attempts = ([{"payoffs": split}] if split else []) + [
            {"target": t} for t in game.pure_profiles()]
        for kwargs in attempts:
            try:
                return game, build_plan(game, sigma, delta=delta, **kwargs)
            except ValueError:
                continue


def test_batched_grid_matches_scalar_loop_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # Rows the first stage rejects cost up to tens of milliseconds each in
    # the fallback chain (4x4 support enumeration), so the draws are fixed
    # to keep the suite's run time fixed; 4x4 plans get a smaller grid.
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2, 2), (3, 3), (4, 4), (2, 2, 2)]))
    def run(seed, counts):
        game, plan = _random_plan(np.random.default_rng(seed), counts)
        grid = {"budget": 3, "amounts": (plan.delta,) if counts == (4, 4) else None}
        with _recorded_findings() as batched:
            check_deviations(game, plan, **grid)
        with _recorded_findings() as scalar:
            _scalar_check_deviations(game, plan, **grid)
        _assert_same_rows(batched, scalar)

    run()


def test_batched_first_stage_matches_scalar_search_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2, 2), (3, 3), (4, 4), (2, 2, 2)]),
           st.sampled_from([1e-3, 0.05, 0.5]),
           st.sampled_from([0.0, 0.05, 0.5]))
    def run(seed, counts, scale, headroom):
        rng = np.random.default_rng(seed)
        if len(counts) == 2:
            game, sigma = full_support_two_player(rng, actions=counts[0])
        else:
            game, sigma = full_support_multiplayer(rng, players=len(counts))
        n = game.num_players
        ceiling = tuple(expected_utility(game, sigma, i) + headroom for i in range(n))
        stage = PunishmentStage(0, sigma.supports(), sigma, ceiling)
        stack = game.utilities + rng.uniform(-scale, scale, (16, *game.utilities.shape))
        stack[0] = game.utilities
        stack[1] = 0.0  # exactly singular: every indifference row vanishes
        found = punish_batch(stack, stage.supports, stage.seed, stage.ceiling)
        for r in range(len(stack)):
            g = game.with_utilities(stack[r])
            pun = reference.find_punishment_equilibrium(
                g, stage.supports, stage.seed, stage.ceiling)
            assert found.kinds[r] == pun.kind
            if pun.profile is not None:
                want = [best_response_payoff(g, pun.profile, i) for i in range(n)]
                assert np.all(np.abs(found.best_response[r] - want) <= 1e-12)
            else:
                pure = reference.enumerate_pure_nash(g)
                want = [max((g.payoff(i, p) for p in pure), default=-np.inf)
                        for i in range(n)]
                assert found.pure_best[r].tolist() == want

    run()


def test_singular_row_is_found_by_one_factorisation_and_left_to_the_fallback():
    game, plan = prize_plan()
    stage = plan.punishment[0]
    stack = np.stack([game.utilities, np.zeros_like(game.utilities),
                      game.utilities])
    calls = []
    solve, slogdet = np.linalg.solve, np.linalg.slogdet

    def spied(name, f):
        def call(a, *rest):
            calls.append((name, a.shape))
            return f(a, *rest)
        return call

    with mock.patch.object(np.linalg, "solve", spied("solve", solve)), \
            mock.patch.object(np.linalg, "slogdet", spied("slogdet", slogdet)):
        first = first_stage_batch(stack, stage.supports, stage.seed, stage.ceiling)
    # One failed solve of the three rows, one factorisation, one solve of
    # the two regular rows.
    assert calls == [("solve", (3, 6, 6)), ("slogdet", (3, 6, 6)), ("solve", (2, 6, 6))]
    assert first.settled.tolist() == [True, False, True]
    scalar = reference.find_punishment_equilibrium(
        game, stage.supports, stage.seed, stage.ceiling)
    assert scalar.kind == "support_solve"
    for i in range(2):
        want = deviation_payoffs(game, scalar.profile, i)
        assert first.deviation_payoffs[i][0].tobytes() == want.tobytes()
        assert first.deviation_payoffs[i][2].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Differential tests: the stacked on-path checks against the per-checkpoint
# loop.
# ---------------------------------------------------------------------------

def _scalar_check_on_path(game, plan, tol=1e-9, checkpoint_budget=None, *, stack=None,
                          punishments=None):
    """Reference on-path checks: every checkpoint searched and checked one
    game at a time.  `stack` and `punishments` are accepted for
    `verify_plan`'s call and ignored."""
    results = {}
    try:
        games = reference.fold_rounds(game, plan.rounds, plan.delta, plan.mode)
    except FoldError as exc:
        return {"round_cap": PropertyResult("fail", str(exc),
                                            {"round": exc.round_index})}
    results["round_cap"] = PropertyResult("pass")
    R = len(plan.rounds)
    probed = verifier._prefix_indices(R + 1, checkpoint_budget)

    # Checkpoint hashes and per-round legality fell out of the fold: a bad
    # round would have raised while folding.
    hash_ok = all(reference.content_hash(games[c.rounds_applied]) == c.game_hash
                  for c in plan.checkpoints)
    results["checkpoint_hashes"] = PropertyResult("pass" if hash_ok else "fail")

    # (P1') discretized continuity: every step stays within the cap ball.
    step_ok = all(game_distance(games[k], games[k + 1]) <= 2 * plan.delta + 1e-12
                  for k in range(R))
    results["P1prime"] = PropertyResult("pass" if step_ok else "fail")

    # Stage anchors: Nash where promised, punishment under ceiling everywhere.
    anchor_fail = punish_fail = None
    nd_fail = None
    det_series = []
    seed_applies = plan.case_tag != "two_by_two"
    full_support_case = plan.case_tag in ("full_support_2p", "full_support_np")
    for k in probed:
        stage = plan.stage_for(k)
        g = games[k]
        if seed_applies:
            check = reference.is_nash(g, stage.seed, 1e-8)
            if not check.ok and anchor_fail is None:
                anchor_fail = {"checkpoint": k, "player": check.player + 1,
                               "gain": check.gain}
        pun = reference.find_punishment_equilibrium(
            g, stage.supports, stage.seed, stage.ceiling)
        if pun.profile is None and punish_fail is None:
            punish_fail = {"checkpoint": k, "reason": pun.reason}
        if full_support_case:
            try:
                nd = reference.is_non_degenerate(g, plan.baseline)
                if not nd.ok and nd_fail is None:
                    nd_fail = {"checkpoint": k, "det": nd.det,
                               "min_residual": nd.min_residual}
            except ValueError as exc:
                if nd_fail is None:
                    nd_fail = {"checkpoint": k, "error": str(exc)}
            system = reference.build_characteristic_system(
                g, plan.action_orders or plan.baseline.supports())
            if g.num_players == 2:
                det_series.append((float(np.linalg.det(system.x1)),
                                   float(np.linalg.det(system.x2))))
            else:
                x = system.profile_vector(plan.baseline)
                det_series.append((float(np.linalg.det(system.jacobian(x))),))

    results["a"] = (PropertyResult("pass") if punish_fail is None else
                    PropertyResult("fail", "punishment anchor missing",
                                   punish_fail))
    if seed_applies:
        results["baseline_nash"] = (
            PropertyResult("pass") if anchor_fail is None else
            PropertyResult("fail", "stage anchor not Nash at a checkpoint",
                           anchor_fail))
    else:
        results["baseline_nash"] = PropertyResult("na",
                                                  "2x2 narrowing recomputes the anchor")

    # (a1): the baseline stays a same-support punishable equilibrium, which
    # needs the anchor Nash checks plus baseline payoffs never rising.
    if plan.case_tag in ("partial_support_disjoint", "partial_support_mixed",
                        "full_support_2p", "full_support_np",
                        "welfare_transfer_stage"):
        base_u = [expected_utility(game, plan.baseline, i)
                  for i in range(game.num_players)]
        drift_ok = all(
            expected_utility(games[k], plan.baseline, i) <= base_u[i] + 1e-9
            for k in probed for i in range(game.num_players))
        ok = anchor_fail is None and punish_fail is None and drift_ok
        results["a1"] = PropertyResult("pass" if ok else "fail")
    else:
        results["a1"] = PropertyResult("na", "construction does not promise (a1)")

    if full_support_case:
        det0 = det_series[0]
        rel = max(abs(d - d0) / max(abs(d0), 1e-12)
                  for row in det_series for d, d0 in zip(row, det0))
        results["P4prime"] = (
            PropertyResult("pass") if nd_fail is None else
            PropertyResult("fail", "baseline degenerate at a checkpoint", nd_fail))
        results["det_invariance"] = (
            PropertyResult("pass", f"max relative drift {rel:.3g}")
            if rel <= 1e-7 else
            PropertyResult("fail", f"determinant drift {rel:.3g} > 1e-7"))
    else:
        results["P4prime"] = PropertyResult(
            "pass" if anchor_fail is None and punish_fail is None else "fail",
            "tracked through stage anchors")
        results["det_invariance"] = PropertyResult("na")

    # (P2') burn monotonicity outside the welfare stage.
    suffix_start = plan.welfare_stage_rounds
    mono_ok = True
    for k in range(suffix_start, R):
        if np.any(games[k + 1].utilities > games[k].utilities + 1e-12):
            mono_ok = False
            break
    results["P2prime"] = PropertyResult("pass" if mono_ok else "fail")

    # (P3') target payoffs pinned after the welfare stage.
    t = plan.target.profile
    ref = games[suffix_start].payoffs(t)
    pin_ok = all(np.all(np.abs(games[k].payoffs(t) - ref) <= 1e-12)
                 for k in range(suffix_start, R + 1))
    results["P3prime"] = PropertyResult("pass" if pin_ok else "fail")

    # (b) == (P5'): the target is Nash at the end.
    target_profile = MixedProfile.pure(game.action_counts, t)
    terminal = reference.is_nash(games[R], target_profile, tol)
    payoff_ok = np.all(np.abs(games[R].payoffs(t)
                              - np.asarray(plan.expected_terminal_payoffs)) <= 1e-9)
    b_res = (PropertyResult("pass") if terminal.ok and payoff_ok else
             PropertyResult("fail", "terminal target not Nash or payoffs off",
                            {"nash_gain": terminal.gain}))
    results["b"] = b_res
    results["P5prime"] = b_res

    # Welfare-stage homotopy properties.
    if plan.welfare_stage_rounds > 0 or plan.case_tag == "welfare_transfer_stage":
        S = plan.welfare_stage_rounds
        w_series = [games[k].utilities.sum(axis=0) for k in range(S + 1)]
        q2_ok = all(np.all(w_series[k + 1] <= w_series[k] + 1e-9)
                    for k in range(S))
        results["Q1"] = results["P1prime"]
        results["Q2"] = PropertyResult("pass" if q2_ok else "fail")
        x = np.asarray(plan.expected_terminal_payoffs)
        q3_ok = np.all(np.abs(games[S].payoffs(t) - x) <= 1e-9)
        results["Q3"] = PropertyResult("pass" if q3_ok else "fail")
        q4_ok = all(reference.is_nash(games[k], plan.baseline, 1e-8).ok for k in range(S + 1))
        results["Q4"] = PropertyResult("pass" if q4_ok else "fail")
        base_u = [expected_utility(game, plan.baseline, i)
                  for i in range(game.num_players)]
        series = [[expected_utility(games[k], plan.baseline, i)
                   for k in range(S + 1)] for i in range(game.num_players)]
        q5_ok = all(series[i][k + 1] <= series[i][k] + 1e-9
                    for i in range(game.num_players) for k in range(S))
        # Players whose raise at the welfare maximizer has baseline support
        # mass are compensated; their baseline payoff must be pinned.
        _, a_sw = welfare_max(game)
        pinned_ok = True
        for i in range(game.num_players):
            D = plan.expected_terminal_payoffs[i] - game.payoff(i, a_sw)
            q = math.prod(float(plan.baseline.probs[j][a_sw[j]])
                          for j in range(game.num_players) if j != i)
            if D > 1e-12 and q > 1e-12:
                if any(abs(series[i][k] - base_u[i]) > 1e-9 for k in range(S + 1)):
                    pinned_ok = False
        results["Q5"] = PropertyResult("pass" if q5_ok and pinned_ok else "fail")
    else:
        for key in ("Q1", "Q2", "Q3", "Q4", "Q5"):
            results[key] = PropertyResult("na")
    return results


def _assert_on_path_agrees(game, plan, **kwargs) -> dict:
    """The stacked and the per-checkpoint on-path checks give equal property
    dicts (status, detail and witness) and the same verify_plan bytes;
    returns the stacked properties."""
    budget = kwargs.get("checkpoint_budget")
    batched = check_on_path(game, plan, checkpoint_budget=budget)
    assert batched == _scalar_check_on_path(game, plan, checkpoint_budget=budget)
    report = verify_plan(game, plan, **kwargs).to_json()
    with mock.patch.object(verifier, "check_on_path", _scalar_check_on_path):
        assert report == verify_plan(game, plan, **kwargs).to_json()
    return batched


def full_support_2p_plan():
    game, sigma = full_support_two_player(np.random.default_rng(3))
    return game, build_plan(game, sigma, target=(1, 2), delta=0.1)


ON_PATH_PLANS = {
    **CATALOG_PLANS,
    "full_support_2p": lambda: (*full_support_2p_plan(), {}),
    # choose_delta's budgets on a 300-round plan
    "ex4_budgets": lambda: (*prize_plan(0.02), {"budget": 8, "checkpoint_budget": 64}),
}


@pytest.mark.parametrize("example", sorted(ON_PATH_PLANS))
def test_stacked_on_path_matches_scalar_loop(example):
    game, plan, kwargs = ON_PATH_PLANS[example]()
    props = _assert_on_path_agrees(game, plan, **kwargs)
    if plan.case_tag.startswith("full_support"):
        assert props["det_invariance"].detail.startswith("max relative drift")


def test_stacked_on_path_matches_scalar_loop_on_seeded_2x2_plans():
    rng = np.random.default_rng(1)
    for _ in range(20):
        _assert_on_path_agrees(*mismatching_two_by_two(rng))


@contextlib.contextmanager
def _no_scalar_search():
    """Any call of the single-game search or non-degeneracy check, in the
    library or in the reference, fails the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a single-game search ran")

    with contextlib.ExitStack() as stack:
        for module in (equilibria, verifier, reference):
            for name in ("find_punishment_equilibrium", "is_non_degenerate"):
                stack.enter_context(mock.patch.object(module, name, forbidden,
                                                      create=True))
        yield


def test_accepted_plan_makes_no_scalar_search():
    game, plan = prize_plan()
    with _no_scalar_search():
        assert verify_plan(game, plan).accepted


def _with_stage(plan, k, **changes):
    """The plan with the stage in force at k replaced, at k alone, by a copy
    with `changes`."""
    stage = plan.stage_for(k)
    stages = [s for s in plan.punishment if s.first_round <= k]
    stages.append(dataclasses.replace(stage, first_round=k, **changes))
    stages += [dataclasses.replace(plan.stage_for(k + 1), first_round=k + 1)]
    stages += [s for s in plan.punishment if s.first_round > k + 1]
    return dataclasses.replace(plan, punishment=tuple(stages))


def test_checkpoint_without_punishment_gets_the_scalar_reason():
    game, plan = prize_plan()
    bad = _with_stage(plan, 2, ceiling=(-100.0, -100.0))
    props = _assert_on_path_agrees(game, bad)
    assert props["a"].status == "fail"
    assert props["a"].witness["checkpoint"] == 2
    assert "no pure equilibrium under ceiling" in props["a"].witness["reason"]
    with _no_scalar_search():
        assert check_on_path(game, bad) == props


def test_stage_seed_not_nash_at_one_checkpoint():
    game, plan = prize_plan()
    bad = _with_stage(plan, 3, seed=MixedProfile.pure((4, 4), (0, 0)))
    props = _assert_on_path_agrees(game, bad)
    assert props["baseline_nash"].status == "fail"
    assert props["baseline_nash"].witness["checkpoint"] == 3


def _extra_final_round(plan):
    pay = CommitmentRound((Pledge(0, plan.target.profile, 1, 0.5),))
    return dataclasses.replace(plan, rounds=plan.rounds + (pay,))


def _payment_in_round_0(plan):
    first = CommitmentRound(plan.rounds[0].pledges + (Pledge(1, (0, 0), 0, 0.5),))
    return dataclasses.replace(plan, rounds=(first,) + plan.rounds[1:])


# Edits of the ex3 welfare-stage plan and the properties each one fails.
SCAN_FAILURES = {
    "extra_final_round": (_extra_final_round, {"P2prime", "P3prime", "b", "P5prime"}),
    "payment_in_round_0": (_payment_in_round_0, {"a1", "Q5", "checkpoint_hashes"}),
    "expected_payoffs_off": (
        lambda plan: dataclasses.replace(plan, expected_terminal_payoffs=(4.5, 2.5)),
        {"Q3", "b", "P5prime"}),
}


@pytest.mark.parametrize("case", sorted(SCAN_FAILURES))
def test_failing_scans_match_scalar_loop(case):
    edit, failing = SCAN_FAILURES[case]
    game, plan = split_plan()
    props = _assert_on_path_agrees(game, edit(plan))
    assert {k for k, v in props.items() if v.status == "fail"} == failing


@pytest.mark.parametrize("make", [full_support_2p_plan,
                                  lambda: CATALOG_PLANS["ex6"]()[:2]])
def test_full_support_baseline_not_nash(make):
    game, plan = make()
    counts = game.action_counts
    skewed = MixedProfile([np.linspace(1, 2, c) / np.linspace(1, 2, c).sum()
                           for c in counts])
    props = _assert_on_path_agrees(game, dataclasses.replace(plan, baseline=skewed))
    assert props["P4prime"].status == "fail"
    assert props["P4prime"].witness["error"].startswith("profile is not Nash")
    with _no_scalar_search():
        assert check_on_path(game, dataclasses.replace(plan, baseline=skewed)) == props


def test_spoiler_report_needs_no_scalar_search():
    # The structural findings of the grid and the on-path verdicts come from
    # the stacks, byte for byte as the reference loops give them.
    game, plan = spoiler_3x3(), naive_spoiler_plan(0.1)
    with mock.patch.object(verifier, "check_deviations", _scalar_check_deviations), \
            mock.patch.object(verifier, "check_on_path", _scalar_check_on_path):
        want = verify_plan(game, plan).to_json()
    with _no_scalar_search():
        report = verify_plan(game, plan)
    assert report.to_json() == want
    assert not report.accepted
    assert report.deviations["commitment"].structural_failures


def test_stacked_on_path_matches_scalar_loop_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2, 2), (3, 3), (4, 4), (2, 2, 2)]),
           st.sampled_from([None, 5]))
    def run(seed, counts, budget):
        game, plan = _random_plan(np.random.default_rng(seed), counts)
        assert (check_on_path(game, plan, checkpoint_budget=budget)
                == _scalar_check_on_path(game, plan, checkpoint_budget=budget))

    run()
