"""The tables keyed by task kind list the same kinds."""

import pytest

from attnlab.harness import TRAINING_DEFAULTS
from attnlab.models import FAMILIES
from attnlab.tasks import TASK_MAKERS, make_task


def test_kind_tables_list_the_same_kinds():
    assert set(TASK_MAKERS) == set(FAMILIES) == set(TRAINING_DEFAULTS)


@pytest.mark.parametrize("kind", sorted(TASK_MAKERS))
def test_each_maker_builds_its_own_kind(kind):
    assert make_task(kind, seed=0).kind == kind
