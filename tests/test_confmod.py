"""Rank-one module action: base cases, recursion, and the two laws that
pin it down (derivation compatibility and factorization through the
rewriting relations)."""

from fractions import Fraction

import pytest

from virhoch.algebra import normal_form
from virhoch.confmod import ModElem, act_gen, act_word, mod_derive
from virhoch.scalars import A, D, ONE, ZERO, ParamPoly


def poly(c) -> ParamPoly:
    return ParamPoly.coerce(c)


U = ModElem.unit()
DU = mod_derive(U)


def test_base_cases():
    assert act_gen(0, U) == ModElem((A, ONE))          # (a + d) u
    assert act_gen(1, U) == ModElem((D,))              # weight eigenvalue
    assert act_gen(2, U) == ModElem(())
    assert act_gen(5, U) == ModElem(())


def test_recursion_example():
    # act(2, du) = d act(2, u) + 2 act(1, u) = 2 D u
    assert act_gen(2, DU) == ModElem((2 * D,))


def test_act_word_composition():
    assert act_word((1, 1), U) == ModElem((D * D,))
    assert act_word((), DU) == DU
    assert act_word((0,), U) == act_gen(0, U)


def test_mod_derive():
    assert mod_derive(U) == ModElem((ZERO, ONE))
    assert mod_derive(act_gen(0, U)) == ModElem((ZERO, A, ONE))


def test_text_form():
    assert str(act_gen(0, U)) == "(1*D^0*a^1) + (1)·∂ | u"
    assert str(ModElem(())) == "0 | u"
    assert str(mod_derive(DU)) == "(1)·∂^2 | u"


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        act_gen(-1, U)


@pytest.mark.parametrize("n", range(9))
def test_derivation_law(n):
    # act(n, du) - d act(n, u) = n act(n-1, u), on d-degrees up to 3
    m = U
    for _ in range(4):
        lhs = act_gen(n, mod_derive(m)) - mod_derive(act_gen(n, m))
        rhs = act_gen(n - 1, m).scale(n) if n else ModElem(())
        assert lhs == rhs
        m = mod_derive(m)


@pytest.mark.parametrize("i", range(9))
def test_action_factors_through_relations(i):
    # act_word(NF(v(i)v(j)), m) = act(i, act(j, m)): the module structure
    # descends from the free algebra to the quotient
    for j in range(9):
        for m in (U, DU, mod_derive(DU)):
            composed = act_gen(i, act_gen(j, m))
            via_nf = ModElem(())
            for w, c in normal_form([((i, j), Fraction(1))]).items():
                via_nf = via_nf + act_word(w, m).scale(c)
            assert composed == via_nf, (i, j)
