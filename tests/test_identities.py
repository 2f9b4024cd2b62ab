"""The identity battery against results recorded from its per-row form.

``identity_battery_reference.json`` holds the (id, max_err, tol, pass)
rows that ``run_identity_suite`` gave when it walked the sampled points
one point at a time, with one-row calls and one draw per point.
The stacked battery must keep the ids, their order, the tolerances and
the pass flags, and the errors up to round-off. Each section draws its
numbers for all rows in one call, so a section that draws out of order
moves the errors of the sections after it. The (4, 3) bowl's record
fails ``fd-consistency`` alone: its far-field u'' comes from the profile
equation, and the second jet shows no Richardson order there.
"""

import json
import os

import numpy as np
import pytest

from rmcf import charts, identities, registry, symfun
from rmcf.identities import run_identity_suite

with open(os.path.join(os.path.dirname(__file__), "identity_battery_reference.json")) as fh:
    REFERENCE = json.load(fh)


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_battery_matches_the_per_row_record(key):
    ref = REFERENCE[key]
    results = run_identity_suite(registry.build_chart(ref["surface"]),
                                 np.random.default_rng(ref["seed"]))
    got = [[r["id"], r["max_err"], r["tol"], r["pass"]] for r in results]
    assert [(cid, tol, ok) for cid, _, tol, ok in got] == [
        (cid, tol, ok) for cid, _, tol, ok in ref["results"]]
    for (cid, err, _, _), (_, want, _, _) in zip(got, ref["results"]):
        if cid == "fd-consistency":
            assert err == want, key
        else:
            assert abs(err - want) <= 1e-12, (key, cid, err, want)



def test_sections_draw_the_per_point_stream(monkeypatch):
    # the per-row battery drew, after the sample, 4 points t for each row's
    # characteristic polynomial, then a unit V per row for operator-height and
    # a unit W per row for grad-pythagoras; round-off-sized errors cannot show
    # which section got which numbers, so the inputs are compared instead
    ref = REFERENCE["bowl-3-2-seed3"]
    chart = registry.build_chart(ref["surface"])
    m, n = 24, chart.n
    rng = np.random.default_rng(ref["seed"])
    rng.uniform(0.15, 0.85, size=(m, n))
    want_t = [rng.uniform(-2.0, 2.0, size=4) for _ in range(m)]
    want_dirs = []
    for _ in range(2 * m):
        v = rng.standard_normal(n + 1)
        want_dirs.append(v / np.linalg.norm(v))

    seen = {"t": [], "dirs": []}

    def char_poly_eval(sigma, t):
        seen["t"].append(t)
        return symfun.char_poly_eval(sigma, t)

    def linear_height(W):
        seen["dirs"].append(W)
        return charts.linear_height(W)

    monkeypatch.setattr(identities, "char_poly_eval", char_poly_eval)
    monkeypatch.setattr(identities, "linear_height", linear_height)
    run_identity_suite(chart, np.random.default_rng(ref["seed"]))
    assert len(seen["t"]) == 1 and np.array_equal(seen["t"][0], want_t)
    assert [d.shape for d in seen["dirs"]] == [(m, n + 1)] * 2
    assert np.max(np.abs(np.concatenate(seen["dirs"]) - want_dirs)) <= 1e-15
