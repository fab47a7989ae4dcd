"""davix-tool resilience flags -> client configuration."""

from repro.cli import _client, build_parser
from repro.core import RequestParams
from repro.resilience import RetryPolicy


def parse(argv):
    return build_parser().parse_args(argv)


def test_full_resilience_flag_set():
    args = parse(
        [
            "--max-attempts", "5",
            "--retry-base", "0.2",
            "--retry-max-delay", "3.0",
            "--retry-jitter", "none",
            "--retry-seed", "9",
            "--deadline", "12",
            "--breaker-threshold", "2",
            "--breaker-cooldown", "7.5",
            "stat", "http://x/y",
        ]
    )
    client = _client(args)
    params = client.context.params
    assert params.retry_policy == RetryPolicy(
        max_attempts=5,
        base_delay=0.2,
        max_delay=3.0,
        jitter="none",
        seed=9,
    )
    assert params.deadline == 12.0
    assert params.breaker_enabled
    board = client.breakers()
    assert board.config.threshold == 2
    assert board.config.cooldown == 7.5


def test_no_breaker_flag_disables_breaking():
    client = _client(parse(["--no-breaker", "stat", "http://x/y"]))
    assert client.context.params.breaker_enabled is False


def test_defaults_keep_legacy_retry_semantics():
    client = _client(parse(["stat", "http://x/y"]))
    params = client.context.params
    assert params.deadline is None
    # Without --max-attempts: one immediate retry, as ever.
    assert params.retry_policy == RequestParams().retry_policy
    assert params.retry_policy.max_attempts == 2
    assert params.retry_policy.jitter == "none"
