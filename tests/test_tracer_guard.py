"""The benchmark's tracer still finds every rmcf name it wraps.

``perfbench/tracer.py`` wraps rmcf functions and methods by name and raises
``LookupError`` when one is gone. This installs and uninstalls it against
``src`` in process, so a removed or renamed traced name fails here.
"""

import os

import pytest

import rmcf.charts
import rmcf.regions
import rmcf.symfun

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    return tracer


def test_tracer_installs_and_restores(tracer_module):
    t = tracer_module.Tracer()
    try:
        t.install()
        patched = list(t._undo)
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    finally:
        t.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    names = {(owner, attr) for owner, attr, _ in patched}
    # the one-row wrappers that the tracer, and only the tracer, keeps in src
    for owner, attr in ((rmcf.charts, "point_geometry"), (rmcf.charts, "L_operator"),
                        (rmcf.symfun, "newton_transform"), (rmcf.symfun.SymMatrix, "__init__"),
                        (rmcf.regions, "in_pocket")):
        assert (owner, attr) in names, attr
