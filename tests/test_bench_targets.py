"""The benchmark's traced pass wraps program names from outside the package;
each of them must still exist, or the pass would measure nothing there."""

from perfbench.pipeline import trace_targets


def test_every_trace_target_resolves():
    targets = trace_targets()
    missing = [f"{owner!r}.{attr}" for owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert targets and not missing
