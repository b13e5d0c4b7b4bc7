import numpy as np
import pytest
from hypothesis import settings

from framesum import FiniteFrame, NotAFrameError, exact_bounds
from framesum.frames import frame_operator

# Every run draws the same examples, and no example fails on a wall-clock
# deadline: timing on a shared host is noise, and stays out of tier-1.  The
# gabor document fuzzer alone sets a deadline, seconds for examples that take
# milliseconds, so that a runaway example fails instead of stalling the suite.
settings.register_profile("framesum", deadline=None, derandomize=True)
settings.load_profile("framesum")


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def random_frame(rng, count, dim):
    """A random spanning frame (resamples the rare rank-deficient draw)."""
    while True:
        vectors = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        frame = FiniteFrame(vectors)
        try:
            exact_bounds(frame)
        except NotAFrameError:
            continue
        return frame


def canonical_dual(frame):
    """The canonical dual family ``{S^-1 f_k}``, by a dense numpy solve."""
    return FiniteFrame(np.linalg.solve(frame_operator(frame), frame.vectors.T).T)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def eig_calls(monkeypatch):
    """Shapes of the matrices passed to ``framesum.linalg.hermitian_eig``, in call order."""
    import framesum.linalg

    calls = []
    original = framesum.linalg.hermitian_eig

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(framesum.linalg, "hermitian_eig", counting)
    return calls
