"""A pytest plugin that runs the collected tests in reverse order, to show
that no test depends on what an earlier one did:

    PYTHONPATH=src:tests python -m pytest -p reverse_order
"""


def pytest_collection_modifyitems(items):
    items.reverse()
