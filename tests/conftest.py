"""Session options shared by every test module.

``--coder python`` replaces the compiled-kernel loader with one that finds no
kernel, so the codec's calls per part run their Python twins across the whole
suite: ``kernel.lattice_codes`` the numpy lattice chain,
``kernel.leaf_points`` the numpy de-interleave and ``coords.lattice_points``,
``kernel.encode_part`` (leaf codes to symbol count and payload) and
``kernel.decode_part`` (payload to leaf codes) the per-node Python coder,
``kernel._encode_per_node``/``kernel._decode_per_node``, and the metrics'
``kernel.neighbour_covariances`` the numpy gather, centre and ``einsum``,
``kernel._gathered_covariances``. The default, ``auto``, uses the kernel whenever it builds.
The report header, or under ``-q`` the summary, names the session's coder.
Commands run in subprocesses load the kernel as usual either way; CI runs the
console script once more with ``cc`` off ``PATH`` to cover the fallback there.

``--sanitize`` runs the in-process tests on the kernel built with
AddressSanitizer and UBSan: :data:`SANITIZE` is appended to ``kernel.CFLAGS``
and ``kernel.open_kernel`` builds it into a temp cache, never the user's (the
flags key the cache, and a build prunes the other keys). ``kernel.load`` then
returns that library; ``open_kernel`` itself is left alone, so the loader's
own tests build with the same flags. The ASan runtime must come first in the
process, leak checks would report the interpreter's own memory, and a finding
ends the process at once, so its report must go to the terminal rather than
to pytest's capture of file descriptor 2 (``--capture=sys``)::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so)" ASAN_OPTIONS=detect_leaks=0 python -m pytest -q --capture=sys --sanitize

The session stops before any test runs if the sanitized library does not load.
"""

import tempfile
from pathlib import Path

import pytest

from lidarpcc import kernel

# at -O1 a report still points at the line; any finding ends the process instead of scrolling past
SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")


def pytest_addoption(parser):
    parser.addoption(
        "--coder",
        choices=("auto", "python"),
        default="auto",
        help="codec coder for in-process tests: auto (compiled kernel if it builds) or python",
    )
    parser.addoption(
        "--sanitize",
        action="store_true",
        help="run in-process tests on the kernel built with AddressSanitizer and UBSan (preload libasan)",
    )


def pytest_configure(config):
    if not config.getoption("--sanitize"):
        return
    if config.getoption("--coder") == "python":
        raise pytest.UsageError("--sanitize checks the compiled kernel; it cannot run with --coder python")
    mp = pytest.MonkeyPatch()
    config.add_cleanup(mp.undo)
    cache = tempfile.TemporaryDirectory(prefix="lidarpcc-sanitized-")
    config.add_cleanup(cache.cleanup)
    mp.setattr(kernel, "CFLAGS", kernel.CFLAGS + SANITIZE)
    lib = kernel.open_kernel(Path(cache.name))
    if lib is None:
        raise pytest.UsageError(
            f"--sanitize: the kernel built with {' '.join(SANITIZE)} did not build or load; "
            "is libasan preloaded (LD_PRELOAD=$(gcc -print-file-name=libasan.so))?"
        )
    mp.setattr(kernel, "load", lambda: lib)


def _coder_line(config) -> str:
    coder = "python" if config.getoption("--coder") == "python" else kernel.coder_name()
    return f"lidarpcc coder: {coder}{' (sanitized)' if config.getoption('--sanitize') else ''}"


def pytest_report_header(config):
    return _coder_line(config)


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q drops the header, so the summary names the coder
        terminalreporter.write_line(_coder_line(config))


@pytest.fixture(scope="session", autouse=True)
def coder(request):
    """The coder the session runs: "c" or "python"."""
    with pytest.MonkeyPatch.context() as mp:
        if request.config.getoption("--coder") == "python":
            mp.setattr(kernel, "load", lambda: None)
        yield kernel.coder_name()
