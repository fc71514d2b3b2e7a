"""The mutation script's own check: one killed and one equivalent mutant, and every edit in its table."""

import pytest

import mutants

BY_NAME = {mutant.name: mutant for mutant in mutants.MUTANTS}


def test_names_are_unique_and_every_old_text_occurs_once():
    # a refactor that moves a mutant's text shows here, not as a crash of the script
    assert len(BY_NAME) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert (mutants.ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name


@pytest.mark.parametrize("name,outcome", [
    ("horizon clamp deleted", "killed"),
    ("time sort: mergesort for stable", "survived"),
])
def test_outcome(name, outcome):
    assert BY_NAME[name].expected == outcome
    assert mutants.run(BY_NAME[name]) == outcome
