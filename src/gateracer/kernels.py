"""Kept only for the benchmark's machine facts, which still read
`kernels.NUMBA_ENABLED`. Every computation runs as plain numpy in the
module that uses it; there is no compiled path."""

NUMBA_ENABLED = False
