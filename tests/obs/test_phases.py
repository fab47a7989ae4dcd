"""PhaseRecorder mark accounting and its phase breakdown."""

import pytest

from repro.obs import PHASES, PhaseRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_marks_attribute_interval_since_previous_mark():
    clock = FakeClock()
    recorder = PhaseRecorder(clock)
    clock.advance(0.5)
    assert recorder.mark("queue-wait") == 0.5
    clock.advance(0.25)
    recorder.mark("connect")
    phases = recorder.phases()
    assert phases["queue-wait"] == 0.5
    assert phases["connect"] == 0.25
    assert phases["tls"] == 0.0


def test_repeated_marks_accumulate():
    clock = FakeClock()
    recorder = PhaseRecorder(clock)
    clock.advance(1.0)
    recorder.mark("queue-wait")
    clock.advance(2.0)
    recorder.mark("queue-wait")
    assert recorder.phases()["queue-wait"] == 3.0


def test_total_equals_marked_wall_time():
    clock = FakeClock()
    recorder = PhaseRecorder(clock)
    for phase, step in zip(PHASES, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)):
        clock.advance(step)
        recorder.mark(phase)
    assert sum(recorder.phases().values()) == pytest.approx(2.8)


def test_unknown_phase_rejected():
    recorder = PhaseRecorder(FakeClock())
    with pytest.raises(ValueError):
        recorder.mark("warp-drive")


def test_elapsed_in_canonical_order():
    clock = FakeClock()
    recorder = PhaseRecorder(clock)
    clock.advance(0.1)
    recorder.mark("ttfb")
    clock.advance(0.1)
    recorder.mark("connect")
    marked = [phase for phase, seconds in recorder.phases().items() if seconds]
    assert marked == ["connect", "ttfb"]


def test_phases_cover_every_phase_in_canonical_order():
    clock = FakeClock()
    recorder = PhaseRecorder(clock)
    clock.advance(1.5)
    recorder.mark("ttfb")
    phases = recorder.phases()
    assert tuple(phases) == PHASES
    assert phases["ttfb"] == 1.5
    assert sum(phases.values()) == 1.5  # every other phase is 0.0
