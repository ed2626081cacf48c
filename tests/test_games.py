import json
from fractions import Fraction as F

import pytest

import ltumatch.games as games
from ltumatch import BimatrixGame, DimensionMismatch, FormatError, MixedProfile


def _bos():
    return BimatrixGame(
        rows=(("a",), ("b",)),
        cols=(("x", "L"), ("x", "R")),
        loss=((F(0), F(2)), (F(2), F(1))),
        payoff=((F(1), F(0)), (F(0), F(2))),
    )


def test_game_shape():
    g = _bos()
    assert g.shape == (2, 2)


def test_game_rejects_mismatched_matrices():
    with pytest.raises(DimensionMismatch):
        BimatrixGame(
            rows=(("a",),),
            cols=(("x", "L"), ("x", "R")),
            loss=((F(0), F(2)), (F(2), F(1))),
            payoff=((F(1), F(0)),),
        )


def test_is_hide_and_seek():
    assert not _bos().is_hide_and_seek()
    g = BimatrixGame(
        rows=(("a",),),
        cols=(("x", "c"),),
        loss=((F(1, 2),),),
        payoff=((F(3, 4),),),
    )
    assert g.is_hide_and_seek()
    # zero must appear in both matrices at once
    g = BimatrixGame(
        rows=(("a",),),
        cols=(("x", "c"),),
        loss=((F(0),),),
        payoff=((F(3, 4),),),
    )
    assert not g.is_hide_and_seek()


def test_profile_requires_exact_unit_sums():
    MixedProfile(p=(F(1, 3), F(2, 3)), q=(F(1),))
    with pytest.raises(FormatError):
        MixedProfile(p=(F(1, 3), F(1, 3)), q=(F(1),))
    with pytest.raises(FormatError):
        MixedProfile(p=(F(2), F(-1)), q=(F(1),))


def test_profile_supports():
    prof = MixedProfile(p=(F(1, 3), F(0), F(2, 3)), q=(F(0), F(1)))
    assert prof.p_support == (0, 2)
    assert prof.q_support == (1,)


def _through_json(game):
    """The game rebuilt from the JSON text of its dict form."""
    raw = json.loads(json.dumps(games.game_to_dict(game), default=str))
    return BimatrixGame(
        tuple(map(tuple, raw["rows"])),
        tuple(map(tuple, raw["cols"])),
        tuple(tuple(map(F, row)) for row in raw["loss"]),
        tuple(tuple(map(F, row)) for row in raw["payoff"]),
    )


def test_game_json_round_trip():
    g = _bos()
    assert _through_json(g) == g


def test_game_json_round_trip_with_vacant_slots():
    g = BimatrixGame(
        rows=(("1", None), ("1", "1")),
        cols=(("x", "1"),),
        loss=((F(1),), (F(1, 4),)),
        payoff=((F(1),), (F(1, 2),)),
    )
    assert _through_json(g) == g


def test_profile_json_round_trip():
    prof = MixedProfile(p=(F(2, 5), F(3, 5)), q=(F(1),))
    text = json.dumps(games.profile_to_dict(prof), default=str)
    assert games.profile_from_dict(json.loads(text)) == prof


@pytest.mark.parametrize(
    "error, call",
    [
        (DimensionMismatch, lambda: BimatrixGame((), (("x", "L"),), (), ())),
        (DimensionMismatch, lambda: MixedProfile(p=(), q=(F(1),))),
        (FormatError, lambda: games.profile_from_dict({"p": ["1"]})),
    ],
    ids=["empty game", "empty profile", "profile keys missing"],
)
def test_input_checks_raise_their_class(error, call):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
