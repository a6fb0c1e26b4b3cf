from __future__ import annotations

from collections import Counter

import pytest

from multirec import morphic
from multirec.errors import CompositeSize, ConstructionBug, InvalidInput, NotApplicable
from multirec.generators import Morphism, load_preset, preset_word, thue_morse
from multirec.lattice import FiniteWord, WordSource, iter_box, vec_scale
from multirec.morphic import (
    NOT_SURD,
    SURD,
    ZERO_TAIL,
    all_2x2_morphisms,
    ceil_log,
    check_cor1,
    check_hyperplane,
    check_main_morphic,
    check_non_recurrent_direction,
    check_power,
    classify_2x2,
    lemma_001_101_check,
    main_morphic_claim,
    non_surd_2x2_witness,
    reduction_claim,
    ssurdo_structure_check,
    survey_2x2_entry,
    survey_all_2x2,
    thue_lemma_tm0,
    thue_lemma_tm1,
)
from multirec.recurrence import gap_report
from multirec.residues import family_c

# the morphism shown right after the SURD sufficient condition: both images
# carry 1 in the bottom-left corner
ORIGIN_MARKED = Morphism([
    FiniteWord((2, 2), (1, 0, 0, 0)),
    FiniteWord((2, 2), (1, 0, 0, 1)),
])


def test_ceil_log_integer_search():
    assert ceil_log(3, 1) == 0
    assert ceil_log(3, 3) == 1
    assert ceil_log(3, 4) == 2
    assert ceil_log(2, 8) == 3
    assert ceil_log(2, 9) == 4


def test_main_morphic_bound_arithmetic():
    phi = load_preset("ssurdo-3x3")
    assert main_morphic_claim(phi, (4, 4)) == 27
    assert main_morphic_claim(phi, (3, 1)) == 9
    assert reduction_claim(phi, (4, 4), 5) == 45
    assert reduction_claim(phi, (1, 1), 5) == 5


def test_origin_marked_morphism_satisfies_everything():
    assert check_cor1(ORIGIN_MARKED, 1).holds
    assert check_main_morphic(ORIGIN_MARKED, 1).holds


def test_sierpinski_fails_the_sufficient_conditions():
    phi = load_preset("sierpinski")
    assert not check_cor1(phi, 1).holds
    verdict = check_main_morphic(phi, 1)
    assert not verdict.holds
    assert verdict.witness is not None
    assert not check_hyperplane(phi, 1).holds


def test_marked_positions_per_subgroup_suffice():
    """Putting the letter on one nonzero element of each cyclic subgroup,
    in both images, satisfies the subgroup condition without touching the
    origin of 0's image."""
    marks = set()
    for g in family_c(5, 2).subgroups:
        marks.add(min(e for e in g.elements if e != (0, 0)))
    cells0 = [1 if p in marks else 0 for p in iter_box((5, 5))]
    cells1 = list(cells0)
    cells1[0] = 1
    phi = Morphism([FiniteWord((5, 5), cells0), FiniteWord((5, 5), cells1)])
    assert not check_cor1(phi, 1).holds
    assert check_main_morphic(phi, 1).holds


def test_power_preset_needs_its_square():
    phi = load_preset("power-3x3")
    assert not check_power(phi, 1, 1).holds
    assert check_power(phi, 1, 2).holds


def test_power_one_reduces_to_main_condition():
    for name in ("sierpinski", "ssurdo-3x3", "power-3x3"):
        phi = load_preset(name)
        assert check_power(phi, 1, 1).holds == check_main_morphic(phi, 1).holds


def test_hyperplane_condition_on_the_proof_shape():
    # column 0 of 1's image all ones; column 1 all ones in both images
    def build(b):
        return FiniteWord.from_function(
            (3, 3), lambda p: 1 if p[0] == 1 or (b == 1 and p[0] == 0) else 0
        )

    phi = Morphism([build(0), build(1)])
    assert check_hyperplane(phi, 1).holds
    assert not check_cor1(phi, 1).holds


def test_hyperplane_requires_prime_size():
    marked = FiniteWord.from_function((4, 4), lambda p: 1 if p == (0, 0) else 0)
    with pytest.raises(CompositeSize):
        check_hyperplane(Morphism([marked, marked]), 1)


@pytest.mark.parametrize("s", [1, 4, 9])
def test_every_prime_condition_refuses_a_composite_size(s):
    square = FiniteWord.from_function((s, s), lambda p: 1 if p == (0, 0) else 0)
    line = FiniteWord.from_function((s,), lambda p: 1 if p == (0,) else 0)
    for check in (lambda: check_hyperplane(Morphism([square, square]), 1),
                  lambda: check_non_recurrent_direction(Morphism([square, square]), 1, (1, 1)),
                  lambda: lemma_001_101_check(Morphism([line, line]), 1, 0, 1)):
        with pytest.raises(CompositeSize, match=f"size {s} is not prime"):
            check()


def test_all_images_marked_hyperplane_trivial_case():
    ones = FiniteWord((3, 3), (1,) * 9)
    assert check_hyperplane(Morphism([ones, ones]), 1).holds


def test_sierpinski_diagonal_is_non_recurrent():
    phi = load_preset("sierpinski")
    verdict = check_non_recurrent_direction(phi, 1, (1, 1), horizon=500)
    assert verdict.holds
    w = preset_word("sierpinski")
    line = w.letters_along((0, 0), (1, 1), 501)
    assert line[0] == 1
    assert set(line[1:]) == {0}


def test_a_repeat_on_the_scanned_line_is_a_construction_bug(monkeypatch):
    monkeypatch.setattr(morphic, "occurrence_indices", lambda *args, **kwargs: [0, 7])
    with pytest.raises(ConstructionBug, match="at 7 \\* \\(1, 1\\)"):
        check_non_recurrent_direction(load_preset("sierpinski"), 1, (1, 1))


def test_non_recurrence_condition_is_not_necessary():
    phi = load_preset("suffnotnec-3x3")
    verdict = check_non_recurrent_direction(phi, 1, (1, 3), horizon=500)
    assert not verdict.holds
    assert verdict.witness == (0, (2, 0))
    w = preset_word("suffnotnec-3x3")
    line = w.letters_along((0, 0), (1, 3), 501)
    assert line[0] == 1 and set(line[1:]) == {0}


def test_classification_of_the_presets():
    assert classify_2x2(load_preset("surd-not-ssurdo-2x2")) == SURD
    assert classify_2x2(load_preset("sierpinski")) == NOT_SURD


def test_all_ones_image_is_always_recurrent():
    ones = FiniteWord((2, 2), (1, 1, 1, 1))
    for cells in ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0)):
        assert classify_2x2(Morphism([FiniteWord((2, 2), cells), ones])) == SURD


def test_classify_rejects_wrong_shapes():
    with pytest.raises(InvalidInput):
        classify_2x2(load_preset("ssurdo-3x3"))
    unseeded = Morphism([
        FiniteWord((2, 2), (1, 0, 0, 0)),
        FiniteWord((2, 2), (0, 1, 1, 1)),
    ])
    with pytest.raises(InvalidInput):
        classify_2x2(unseeded)


def test_witness_rejected_for_recurrent_morphisms():
    with pytest.raises(NotApplicable):
        non_surd_2x2_witness(load_preset("surd-not-ssurdo-2x2"))


def test_case_32_instance_has_fixed_direction():
    phi = Morphism([
        FiniteWord((2, 2), (0, 1, 1, 0)),
        FiniteWord((2, 2), (1, 1, 0, 1)),
    ])
    witness = non_surd_2x2_witness(phi)
    assert witness.case == "case-3.2"
    assert witness.direction() == (2, 1)
    assert witness.verify(phi, horizon=2000)


def test_case_4_instance_zero_range():
    phi = Morphism([
        FiniteWord((2, 2), (0, 0, 0, 1)),
        FiniteWord((2, 2), (1, 1, 1, 0)),
    ])
    witness = non_surd_2x2_witness(phi)
    assert witness.case == "case-4"
    assert witness.direction(3) == (7, 1)
    assert list(witness.zero_multipliers(3)) == list(range(1, 8))
    assert witness.verify(phi, param=3)


def test_wildcards_default_to_zero_still_kill_the_line():
    # same image of 1, every unspecified cell of 0's image set to 0: the
    # stated multiples still read 0 even though a shorter witness exists
    phi = Morphism([
        FiniteWord((2, 2), (0, 0, 0, 0)),
        FiniteWord((2, 2), (1, 1, 1, 0)),
    ])
    w = phi.fixed_point(1)
    assert all(w.letter(vec_scale((7, 1), j)) == 0 for j in range(1, 8))
    witness = non_surd_2x2_witness(phi)
    assert witness.pattern == "zero-tail"
    assert witness.verify(phi)


def test_column_of_zeros_gives_the_trivial_witness():
    phi = Morphism([
        FiniteWord((2, 2), (0, 0, 0, 1)),
        FiniteWord((2, 2), (1, 1, 0, 1)),
    ])
    witness = non_surd_2x2_witness(phi)
    assert witness.case == "trivial"
    assert witness.direction() == (0, 1)
    assert witness.verify(phi)


def test_parameter_parity_enforced():
    """Every direction family but case-4 takes only odd parameters; a
    fixed direction ignores the parameter."""
    witnesses = {}
    for phi in all_2x2_morphisms():
        if classify_2x2(phi) == NOT_SURD:
            witness = non_surd_2x2_witness(phi)
            witnesses.setdefault(witness.case, witness)
    assert len(witnesses) == 9
    for case, witness in witnesses.items():
        if witness.pattern == ZERO_TAIL:
            assert witness.direction(2) == witness.direction() == witness.fixed_direction
        elif case == "case-4":
            assert witness.direction(2) == (3, 1)
        else:
            witness.direction(3)
            with pytest.raises(InvalidInput, match="odd"):
                witness.direction(2)


def test_enumeration_has_128_candidates():
    morphisms = all_2x2_morphisms()
    assert len(morphisms) == 128
    assert len(set(morphisms)) == 128
    assert all(m.image(1)[(0, 0)] == 1 for m in morphisms)


def test_survey_entry_validates_both_verdicts():
    surd = survey_2x2_entry(((1, 1, 1, 1), (1, 0, 0, 0), 500, 2, 3))
    assert surd["verdict"] == SURD and surd["ok"]
    non = survey_2x2_entry(((0, 0, 0, 0), (1, 1, 1, 0), 500, 2, 3))
    assert non["verdict"] == NOT_SURD and non["ok"]


def test_in_process_survey_matches_the_pool_and_the_papers_table():
    """The in-process survey gives the pooled survey's entries in order,
    and the proof's table: 72 SURD, the 56 others by witness case."""
    entries = survey_all_2x2(workers=1)
    assert entries == survey_all_2x2(workers=2)
    assert all(e["ok"] for e in entries)
    assert sum(e["verdict"] == SURD for e in entries) == 72
    assert Counter(e["detail"] for e in entries if e["verdict"] == NOT_SURD) == {
        "trivial": 37, "case-4": 4, "case-1": 3, "case-2": 3, "case-2-symm": 3,
        "case-3.2": 2, "case-3.2-symm": 2, "case-3.1": 1, "case-3.1-symm": 1,
    }


def test_thue_lemmas_small_cases():
    assert thue_morse(1) == thue_morse(2) == 1
    assert [thue_morse(3 * m) for m in range(1, 5)] == [0, 0, 0, 0]
    assert [thue_morse(5 * m) for m in range(5)] == [0, 0, 0, 0, 0]
    for ell in range(1, 9):
        assert thue_lemma_tm1(ell)
        assert thue_lemma_tm0(ell)


def test_arithmetic_windows_keep_the_letter():
    sigma = Morphism([FiniteWord((3,), (0, 0, 1)), FiniteWord((3,), (1, 0, 1))])
    for m in (1, 3, 9):
        assert lemma_001_101_check(sigma, 1, 2, m)


def test_lemma_001_101_rejects_missing_common_position():
    sigma = Morphism([FiniteWord((3,), (0, 0, 1)), FiniteWord((3,), (1, 1, 0))])
    with pytest.raises(InvalidInput):
        lemma_001_101_check(sigma, 1, 2, 1)


def test_ssurdo_structure_small_depths():
    assert ssurdo_structure_check(1)
    assert ssurdo_structure_check(2)
    phi = load_preset("ssurdo-3x3")
    diff = [p for p in iter_box((9, 9))
            if phi.iterate(0, 2)[p] != phi.iterate(1, 2)[p]]
    assert diff == [(8, 8)]


def test_reduction_bound_holds_empirically():
    """A letter-level gap bound stretches to prefixes by one factor of s per
    digit, which the scans must confirm."""
    for name in ("ssurdo-3x3", "surd-not-ssurdo-2x2", "power-3x3"):
        phi = load_preset(name)
        w = preset_word(name)
        for q in ((1, 1), (2, 1)):
            letter_gap = gap_report(w, q, (1, 1), horizon=3000).max_gap
            for m in ((2, 2), (3, 3)):
                claimed = reduction_claim(phi, m, letter_gap)
                r = gap_report(w, q, m, horizon=3000, claim=claimed)
                assert r.verdict == "BOUNDED_WITNESSED"


def test_witness_parameter_above_the_limit_is_refused_unread(monkeypatch):
    phi = next(m for m in all_2x2_morphisms()
               if classify_2x2(m) == NOT_SURD and non_surd_2x2_witness(m).case == "case-4")
    witness = non_surd_2x2_witness(phi)
    assert witness.verify(phi, param=16)

    def never(*args, **kwargs):
        raise AssertionError("a read started")

    monkeypatch.setattr(WordSource, "letters_along", never)
    with pytest.raises(InvalidInput, match="limit of 16"):
        witness.verify(phi, param=40)
    with pytest.raises(InvalidInput, match="limit of 16"):
        survey_all_2x2(param=17, workers=1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, runs nothing."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return []


@pytest.mark.parametrize("workers, pool", [(1000, 128), (129, 128), (3, 3)])
def test_survey_pool_is_clamped_to_the_entries(monkeypatch, workers, pool):
    monkeypatch.setattr(morphic, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert survey_all_2x2(workers=workers) == []
    assert _RecordingPool.sizes == [pool]


@pytest.mark.parametrize("workers", [0, -2])
def test_survey_refuses_fewer_than_one_worker(monkeypatch, workers):
    monkeypatch.setattr(morphic, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    with pytest.raises(InvalidInput, match="at least 1"):
        survey_all_2x2(workers=workers)
    assert _RecordingPool.sizes == []
