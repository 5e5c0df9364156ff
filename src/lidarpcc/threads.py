"""The one way the package runs work on two cores: the calling thread and at most one helper per call."""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor, wait


@contextlib.contextmanager
def helper_thread():
    """``submit`` for a with-block: ``submit(fn, *args)`` runs ``fn(*args)`` on the block's helper thread.

    It returns the call's future. The one helper thread starts at the first
    ``submit``, runs the calls in the order they came, and is joined when the
    block ends, so a block that submits nothing starts no thread and no thread
    outlives the block. A call running on the helper must not submit to it and
    wait, as it would wait for itself.
    """
    with ThreadPoolExecutor(1, thread_name_prefix="lidarpcc-helper") as pool:
        yield pool.submit


def on_two_threads(work, count: int, helper, submit=None) -> list:
    """``[work(n) for n in range(count)]``, with the ``n`` in ``helper`` run on a helper thread.

    The calling thread runs the other ``n`` in order while the helper thread
    runs ``helper`` in its order: that of an enclosing :func:`helper_thread`
    block when its ``submit`` is given, else one started for this call and
    joined before it returns; with ``helper`` empty no thread is used. Only
    native code that releases the GIL (kernel calls, numpy, scipy's k-d tree)
    runs at once. Results and the error raised are those of the serial loop:
    both threads finish, then results are read in order, so the lowest
    failing ``n`` raises.
    """
    theirs = list(helper)
    if not theirs:
        return [work(n) for n in range(count)]
    if submit is None:
        with helper_thread() as submit:
            return on_two_threads(work, count, theirs, submit)
    outcomes = {}  # n → (True, result) or (False, exception)

    def settle(items) -> None:
        for n in items:
            try:
                outcomes[n] = True, work(n)
            except Exception as exc:
                outcomes[n] = False, exc

    mine = [n for n in range(count) if n not in theirs]
    future = submit(settle, theirs)
    try:
        settle(mine)
    finally:
        wait([future])
    future.result()  # settle keeps every Exception; anything else the helper raised ends the call here
    results = []
    for n in range(count):
        ok, value = outcomes[n]
        if not ok:
            raise value
        results.append(value)
    return results
