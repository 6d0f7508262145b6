import sys

import pytest


@pytest.fixture
def engine_inputs(monkeypatch):
    """The input of every Buchberger run, as (generators, order, tracked,
    whether a Hilbert series was given, whether a containing ideal's leading
    monomials were given).

    Every basis the engine computes, tracked or not, goes through
    `_run_buchberger`, so the list holds one entry per run, in call order.
    """
    engine = sys.modules["symrees.groebner"]
    real = engine._run_buchberger
    runs = []

    def recording(gens, ring, order, track, hilbert=None, cover=None):
        runs.append((tuple(gens), order, track, hilbert is not None, cover is not None))
        return real(gens, ring, order, track, hilbert, cover)

    monkeypatch.setattr(engine, "_run_buchberger", recording)
    return runs
