"""The one way the package runs work on two cores: the calling thread and one helper per call."""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor


def on_two_threads(work, count: int, helper) -> list:
    """``[work(n) for n in range(count)]``, with the ``n`` in ``helper`` run on a helper thread.

    The calling thread runs the other ``n`` in order while one helper thread,
    started for this call and joined before it returns, runs ``helper`` in
    its order; with ``helper`` empty no thread starts. Only native code that
    releases the GIL (kernel calls, numpy, scipy's k-d tree) runs at once.
    The helper runs in a copy of the caller's context, so the caller's numpy
    error state (``np.errstate``) holds on both threads.
    Results and the error raised are those of the serial loop: both threads
    finish, then results are read in order, so the lowest failing ``n`` raises.
    """
    theirs = list(helper)
    if not theirs:
        return [work(n) for n in range(count)]
    outcomes = {}  # n → (True, result) or (False, exception)

    def settle(items) -> None:
        for n in items:
            try:
                outcomes[n] = True, work(n)
            except Exception as exc:
                outcomes[n] = False, exc

    mine = [n for n in range(count) if n not in theirs]
    with ThreadPoolExecutor(1, thread_name_prefix="lidarpcc-helper") as pool:
        future = pool.submit(contextvars.copy_context().run, settle, theirs)
        settle(mine)  # leaving the block joins the helper, also when this raises
    future.result()  # settle keeps every Exception; anything else the helper raised ends the call here
    results = []
    for n in range(count):
        ok, value = outcomes[n]
        if not ok:
            raise value
        results.append(value)
    return results
