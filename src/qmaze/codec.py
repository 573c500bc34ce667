"""Binary path encoding: direction sequences <-> 2n-bit integers.

Every register in the search artifact indexes basis states by this code.
Each direction occupies two bits (N=00, E=01, S=10, W=11) and the first
move sits in the most significant pair, so the binary literal of an
encoded path reads left to right in move order (e.g. (S, E) -> 0b1001).
"""

from __future__ import annotations

from .maze import Direction

# Largest supported path length. A search holds no 4**n array, so this does
# not bound its memory. It bounds what does hold one: the 4**n
# ``FitnessLandscape.values``, built when read, and the ``dynamics``
# statevector. It is also the top of every ``--n`` parser (``solve``,
# ``sweep``, ``dynamics`` and ``resources``).
MAX_PATH_LENGTH = 12

# A direction's code is its index in ``Direction``; the circuits' walk step
# and ``maze.path_automaton``'s table columns read the same order.
_CODE_DIR = dict(enumerate(Direction))


def decode_index(value: int, n: int) -> tuple[Direction, ...]:
    """Direction sequence of length ``n`` encoded by ``value``.

    Raises ValueError if ``value`` is outside [0, 4**n).
    """
    if n < 0:
        raise ValueError(f"path length must be >= 0, got {n}")
    if not 0 <= value < 4**n:
        raise ValueError(f"path index {value} out of range for length {n}")
    # A list, not a generator, so tuple() allocates the final size rather than resizing a guess.
    return tuple([_CODE_DIR[(value >> (2 * (n - 1 - k))) & 0b11] for k in range(n)])


def path_count(n: int) -> int:
    """Number of candidate paths of length n, i.e. 4**n."""
    if n < 0:
        raise ValueError(f"path length must be >= 0, got {n}")
    if n > MAX_PATH_LENGTH:
        raise ValueError(f"path length {n} exceeds cap {MAX_PATH_LENGTH}")
    return 4**n


def path_letters(path) -> str:
    """Render a direction sequence as letters, e.g. 'SE'."""
    return "".join(d.name for d in path)


def path_bits(value: int, n: int) -> str:
    """Render an encoded path as its 2n-bit binary string."""
    if n == 0:
        return ""
    return format(value, f"0{2 * n}b")
