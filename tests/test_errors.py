"""Non-numeric input is a LooplabError at the public boundary."""

import numpy as np
import pytest

from looplab.affine import (build_periodic_sequence, build_root_system,
                            default_period, exponent_table)
from looplab.errors import InvalidInput, InvalidLevel, check_level
from looplab.loops import identity_loop, loop_from_json
from looplab.measures import MeasureSpec
from looplab.rootsub import RootCoordsSU2, recover_coords, recover_eta0


def _a1_word():
    rs = build_root_system("A1")
    return rs, build_periodic_sequence(rs, default_period(rs), 2)


@pytest.mark.parametrize("call,error", [
    (lambda: check_level("a"), InvalidLevel),
    (lambda: check_level(None), InvalidLevel),
    (lambda: check_level(1j), InvalidLevel),
    (lambda: MeasureSpec.su2("a", 2), InvalidLevel),
    (lambda: exponent_table(*_a1_word(), "x", 2), InvalidLevel),
    (lambda: RootCoordsSU2(0.0, [], "a", [], []), InvalidInput),
    (lambda: RootCoordsSU2(0.0, ["a"], 0j, [], []), InvalidInput),
    (lambda: RootCoordsSU2(0.0, [], 0j, [None], []), InvalidInput),
    (lambda: RootCoordsSU2(0.0, [[0.1]], 0j, [], []), InvalidInput),
    (lambda: RootCoordsSU2(0.0, [], 0j, [], 0.5j), InvalidInput),
    (lambda: loop_from_json(
        '{"dim": true, "n_min": 0, "n_max": 0, "coeffs": [[[1, 0]]]}'), InvalidInput),
    (lambda: loop_from_json(
        '{"dim": 1, "n_min": false, "n_max": 0, "coeffs": [[[1, 0]]]}'), InvalidInput),
    (lambda: identity_loop().coeff(0.5), InvalidInput),
    (lambda: identity_loop().with_band(-1.5, 2), InvalidInput),
    (lambda: _a1_word()[1].index(1.5), InvalidInput),
    (lambda: _a1_word()[1].index(True), InvalidInput),
    (lambda: _a1_word()[1].word(2.5), InvalidInput),
    (lambda: recover_coords(np.eye(2)), InvalidInput),
    (lambda: recover_eta0(np.eye(2)), InvalidInput),
], ids=["level-str", "level-none", "level-complex", "su2-level-str",
        "table-level-str", "chi0-str", "eta-str", "chi-none", "eta-2d",
        "zeta-scalar", "json-dim-bool", "json-n_min-bool", "coeff-float-mode",
        "with_band-float", "index-float", "index-bool", "word-float",
        "recover_coords-array", "recover_eta0-array"])
def test_non_numeric_input_is_rejected(call, error):
    with pytest.raises(error):
        call()
