import pytest

from oracles import guard_enumerated_spaces, restore_shared_spaces


@pytest.fixture(scope="session", autouse=True)
def _guard_enumerated_spaces():
    guard_enumerated_spaces()


@pytest.fixture(autouse=True)
def _shared_spaces_unchanged():
    """Fail the test that leaves a space of oracles.labelled_spaces or
    core.enumerate_spaces changed, and put the space back: every later
    test reads the same objects."""
    yield
    changed = restore_shared_spaces()
    if changed:
        pytest.fail(f"a shared space was changed and not restored: {changed}")
