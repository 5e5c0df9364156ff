"""The one way the package runs work on two cores: the calling thread and one helper per call."""

from __future__ import annotations

import threading


def on_two_threads(work, count: int, helper) -> list:
    """``[work(n) for n in range(count)]``, with the ``n`` in ``helper`` run on a helper thread.

    The calling thread runs the other ``n`` in order while one helper thread,
    started for this call and joined before it returns, runs ``helper`` in
    its order; with ``helper`` empty no thread starts. Only native code that
    releases the GIL (kernel calls, numpy, scipy's k-d tree) runs at once.
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
    thread = threading.Thread(target=settle, args=(theirs,), name="lidarpcc-helper")
    thread.start()
    try:
        settle(mine)
    finally:
        thread.join()
    results = []
    for n in range(count):
        ok, value = outcomes[n]
        if not ok:
            raise value
        results.append(value)
    return results
