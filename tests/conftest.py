import pytest

from oracles import restore_labelled_spaces


@pytest.fixture(autouse=True)
def _labelled_spaces_unchanged():
    """Fail the test that leaves a space of oracles.labelled_spaces
    changed, and put the space back: every later test reads the same
    objects."""
    yield
    changed = restore_labelled_spaces()
    if changed:
        pytest.fail(f"a labelled space was changed and not restored: {changed}")
