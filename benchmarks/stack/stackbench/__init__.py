"""The repo benchmark of the FPSA compile + serve stack.

Everything here measures :mod:`repro` from outside, through its public
functions; nothing under ``src/`` knows this package exists.  Start at
``benchmarks/stack/README.md``.
"""
