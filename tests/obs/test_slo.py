"""SLO policy and the per-origin verdicts folded from request events."""

import pytest

from repro.obs import SloPolicy, slo_verdicts


def request(origin, duration, ok=True):
    """A client ``request`` wide event, reduced to what the fold reads."""
    return {"origin": origin, "duration": duration, "status": 200 if ok else 503}


def test_policy_validation():
    with pytest.raises(ValueError):
        SloPolicy(availability=0.0)
    with pytest.raises(ValueError):
        SloPolicy(availability=1.5)
    with pytest.raises(ValueError):
        SloPolicy(latency_threshold=0.0)
    with pytest.raises(ValueError):
        SloPolicy(latency_objective=0.0)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_policy_rejects_a_non_finite_latency_threshold(threshold):
    with pytest.raises(ValueError, match="finite"):
        SloPolicy(latency_threshold=threshold)


def test_all_good_requests_verdict_ok():
    (origin,) = slo_verdicts([request("server:80", 0.01)] * 100)
    assert origin["requests"] == 100
    assert origin["availability"] == 1.0
    assert origin["latency_attainment"] == 1.0
    assert origin["budget_remaining"] == 1.0
    assert origin["verdict"] == "OK"


def test_availability_breach_spends_the_budget():
    events = [request("server:80", 0.01, ok=i >= 5) for i in range(100)]
    (origin,) = slo_verdicts(events, SloPolicy(availability=0.99))
    assert origin["availability"] == pytest.approx(0.95)
    # 5% errors against a 1% budget: 5x overspent.
    assert origin["budget_remaining"] == pytest.approx(1.0 - 5.0)
    assert origin["verdict"] == "BREACH"


def test_latency_breach_without_errors():
    policy = SloPolicy(latency_threshold=0.1, latency_objective=0.9)
    events = [request("server:80", 1.0 if i < 2 else 0.01) for i in range(10)]
    (origin,) = slo_verdicts(events, policy)
    assert origin["availability"] == 1.0
    assert origin["latency_attainment"] == pytest.approx(0.8)
    assert origin["verdict"] == "BREACH"
    # The p90 of eight 0.01 s and two 1.0 s requests is a slow one.
    assert origin["latency"] == 1.0
    median = slo_verdicts(events, SloPolicy(latency_objective=0.5))
    assert median[0]["latency"] == 0.01


def test_zero_budget_policy():
    policy = SloPolicy(availability=1.0)
    events = [request("a", 0.01)]
    assert slo_verdicts(events, policy)[0]["budget_remaining"] == 1.0
    events.append(request("a", 0.01, ok=False))
    assert slo_verdicts(events, policy)[0]["budget_remaining"] == float("-inf")


def test_origins_sorted_and_len():
    verdicts = slo_verdicts([request("b:80", 0.01), request("a:80", 0.01)])
    assert [v["origin"] for v in verdicts] == ["a:80", "b:80"]
    assert len(verdicts) == 2
    assert slo_verdicts([]) == []


def test_an_event_without_origin_is_charged_to_its_host():
    (origin,) = slo_verdicts([{"host": "h", "duration": 0.2, "status": 500}])
    assert origin["origin"] == "h"
    assert origin["availability"] == 0.0
