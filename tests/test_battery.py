"""What the battery checks rely on without re-checking it, on the smoke suite."""

from vgroups import pullback, standard_suite, validate_hom
from vgroups.battery import SMALL_CARRIER, _exact_sequences
from vgroups.vgroup import factor_through_mono, pullback_comparison


def test_sequence_restrictions_validate_and_compare_into_the_pullback():
    """For every smoke morphism b and normal subgroups nx, ny of its ends
    with b(nx) inside ny, the restriction a of b is a valid hom and the
    cone (a, inclusion of nx) has exactly one comparison into the pullback
    of the inclusion of ny along b."""
    suite = standard_suite("smoke")
    assert all(obj.vgroup.size <= SMALL_CARRIER for obj in suite.objects)
    sequences = [_exact_sequences(obj.vgroup) for obj in suite.objects]
    restrictions = 0
    for hs in suite.hom_sets:
        for b in hs.homs:
            for _, inc_x, _ in sequences[hs.dom]:
                for _, inc_y, _ in sequences[hs.cod]:
                    a_vert = factor_through_mono(inc_x.then(b), inc_y)
                    if a_vert is None:
                        continue
                    restrictions += 1
                    assert validate_hom(a_vert).ok, (b, inc_x, inc_y)
                    p, to_ty, to_x = pullback(inc_y, b)
                    comparison = pullback_comparison(p, to_ty, to_x, a_vert, inc_x)
                    assert comparison.then(to_x) == inc_x
    # as many as the battery's ses_morphism_pullback check counts at smoke
    assert restrictions == 4656
