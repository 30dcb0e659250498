"""Run the fixed-point engine under another stopping rule than its own."""

import contextlib

from robustsense import estimators


@contextlib.contextmanager
def stopping_rule(epsilon=None, max_iterations=None):
    """Inside the block the engine stops at ``epsilon`` and after
    ``max_iterations`` map evaluations (None keeps the engine's value).

    It sets the module constants, so it reaches serial runs only, not the
    worker processes of a parallel one."""
    saved = estimators._EPSILON, estimators._MAX_ITERATIONS
    if epsilon is not None:
        estimators._EPSILON = epsilon
    if max_iterations is not None:
        estimators._MAX_ITERATIONS = max_iterations
    try:
        yield
    finally:
        estimators._EPSILON, estimators._MAX_ITERATIONS = saved
