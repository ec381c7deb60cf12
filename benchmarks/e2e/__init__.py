"""End-to-end benchmark over a real socket fleet (``python -m benchmarks.e2e``).

Four workloads, each built through the real ``ingest`` path and served
by real ``serve`` / ``serve-fleet`` subprocesses; see README.md in this
directory for why each exists and which metric it is meant to move.

Importing this package imports nothing heavy: ``__main__`` must pin the
BLAS thread count in the environment before NumPy is first loaded.
"""
