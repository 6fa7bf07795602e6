import pytest

from w2ghz import photonics


@pytest.fixture
def put_routing(monkeypatch):
    """``put_routing(table)`` puts a routing table in place of the paper's
    ``photonics.DEFAULT_LAYOUT`` and drops the compiled network, so the next
    ``network_map()`` compiles that routing for every route that runs it.
    The paper's routing and its network come back after the test."""

    def put(table):
        monkeypatch.setattr(photonics, "DEFAULT_LAYOUT", table)
        photonics.network_map.cache_clear()

    yield put
    monkeypatch.undo()
    photonics.network_map.cache_clear()
