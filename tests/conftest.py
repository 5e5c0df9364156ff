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


def _coder_line(config) -> str:
    coder = "python" if config.getoption("--coder") == "python" else kernel.coder_name()
    return f"lidarpcc coder: {coder}"


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
