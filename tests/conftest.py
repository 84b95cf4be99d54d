import functools

import pytest

import rsgame as rs
from rsgame import game_model


@pytest.fixture(scope="session")
def g2():
    return rs.g2_instance()


@pytest.fixture(scope="session")
def g2_uniform(g2):
    return rs.uniform_strategy(g2, 1), rs.uniform_strategy(g2, 2)


@pytest.fixture
def builds(monkeypatch):
    """Every transition table built from a decomposition, in build order."""
    built = []
    build = game_model._sum_table

    def counted(arat):
        built.append(build(arat))
        return built[-1]

    monkeypatch.setattr(game_model, "_sum_table", counted)
    return built


@pytest.fixture
def decisions(monkeypatch):
    """Every instance whose decomposition was compared with its tables, in order."""
    decided = []
    decide = game_model.GameInstance._exact_arat.func

    def counted(instance):
        decided.append(instance)
        return decide(instance)

    counting = functools.cached_property(counted)
    counting.__set_name__(game_model.GameInstance, "_exact_arat")
    monkeypatch.setattr(game_model.GameInstance, "_exact_arat", counting)
    return decided
