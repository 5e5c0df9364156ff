"""Session options shared by every test module.

``--coder python`` replaces the compiled-kernel loader with one that finds no
kernel, so the whole suite runs the codec's fallback: the per-node reference
path of ``codec.encode_tree``/``codec.decode_symbols``. The default, ``auto``,
uses the kernel whenever it builds. Commands run in subprocesses load the
kernel as usual either way; CI runs the console script once more with ``cc``
off ``PATH`` to cover the fallback there.
"""

import pytest

from lidarpcc import kernel


def pytest_addoption(parser):
    parser.addoption(
        "--coder",
        choices=("auto", "python"),
        default="auto",
        help="codec coder for in-process tests: auto (compiled kernel if it builds) or python",
    )


@pytest.fixture(scope="session", autouse=True)
def coder(request):
    """The coder the session runs: "c" or "python"."""
    with pytest.MonkeyPatch.context() as mp:
        if request.config.getoption("--coder") == "python":
            mp.setattr(kernel, "load", lambda: None)
        yield kernel.coder_name()
