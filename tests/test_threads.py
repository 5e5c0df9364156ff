import numpy as np
import pytest

from lidarpcc.threads import on_two_threads


def test_the_helper_runs_under_the_callers_numpy_error_state():
    # numpy keeps np.errstate per context; a lone part's helper half computes its own radii
    # and angles, so an overflow there must raise, or stay quiet, as on the calling thread
    big = np.array([1e200])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        on_two_threads(lambda n: big * big if n else big, 2, [1])
    with np.errstate(over="ignore"), np.testing.assert_no_warnings():
        assert on_two_threads(lambda n: big * big, 2, [1])[1] == np.inf
