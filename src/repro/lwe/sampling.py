"""Randomness for the lattice schemes.

Appendix C of the paper fixes the error distribution (discrete Gaussian
with per-scheme standard deviation) and the secret distribution
(ternary).  This module provides those samplers plus seeded expansion
of the public random matrix ``A``, which lets the client and server
agree on ``A`` by exchanging a 32-byte seed instead of the matrix.

All sampling is driven by :class:`numpy.random.Generator`.  Call sites
that need cryptographic randomness pass a generator built from
:func:`system_rng`; tests pass seeded generators for reproducibility.
"""

from __future__ import annotations

import secrets

import numpy as np

from repro.lwe import modular


def system_rng() -> np.random.Generator:
    """A generator seeded from the operating system's entropy pool."""
    return np.random.Generator(np.random.Philox(secrets.randbits(128)))


#: Process-wide replay generator; installed by :func:`set_default_seed`.
_replay_rng: np.random.Generator | None = None


def set_default_seed(seed: int | bytes | None) -> None:
    """Install (or clear) the process-wide deterministic replay stream.

    After ``set_default_seed(seed)``, every library-level ``rng=None``
    fallback that goes through :func:`resolve_rng` draws from one
    shared seeded generator, so a whole run -- keygen, encryption
    noise, load generation -- replays bit-identically.  Call with
    ``None`` to restore the default (OS entropy for key material).

    This exists for debugging and benchmarking only; a deployment must
    never pin its key-generation randomness.
    """
    global _replay_rng
    _replay_rng = None if seed is None else seeded_rng(seed)


def resolve_rng(
    rng: np.random.Generator | None, *, fallback_seed: int | None = None
) -> np.random.Generator:
    """Resolve an optional caller-supplied generator -- the single
    sanctioned ``rng=None`` fallback for library code.

    Precedence: an explicit ``rng`` wins; else the process-wide replay
    stream (:func:`set_default_seed`), which makes end-to-end
    deterministic replay possible; else ``fallback_seed`` (for call
    sites whose documented default behavior is deterministic, e.g. the
    indexer); else fresh OS entropy via :func:`system_rng`.

    The tiptoe-lint ``rng-unseeded`` rule flags library code that calls
    ``np.random.default_rng()`` directly instead of routing through
    here.
    """
    if rng is not None:
        return rng
    if _replay_rng is not None:
        return _replay_rng
    if fallback_seed is not None:
        return seeded_rng(fallback_seed)
    return system_rng()


def child_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator spawned from ``rng``'s seed sequence.

    Drawing from the child never advances ``rng`` itself, so draws added
    on the side (the encryption masks made with a key) leave every later
    draw of ``rng`` -- and so every key for a pinned seed -- unchanged.
    """
    return rng.spawn(1)[0]


def seeded_rng(seed: int | bytes) -> np.random.Generator:
    """A deterministic generator for a given integer or byte-string seed."""
    if isinstance(seed, bytes):
        seed = int.from_bytes(seed, "little")
    return np.random.Generator(np.random.Philox(seed))


def random_seed() -> bytes:
    """A fresh 32-byte seed for matrix expansion."""
    return secrets.token_bytes(32)


def expand_matrix(seed: int | bytes, rows: int, cols: int, q_bits: int) -> np.ndarray:
    """Deterministically expand a seed into a uniform matrix over Z_q.

    Both parties run this with the same seed, so the LWE public matrix
    ``A`` never crosses the network (SimplePIR's seed-compression).
    """
    rng = seeded_rng(seed)
    dtype = modular.dtype_for(q_bits)
    if q_bits == 32:
        return rng.integers(0, 1 << 32, size=(rows, cols), dtype=np.uint32)
    lo = rng.integers(0, 1 << 32, size=(rows, cols), dtype=np.uint32)
    hi = rng.integers(0, 1 << 32, size=(rows, cols), dtype=np.uint32)
    return (hi.astype(dtype) << dtype(32)) | lo.astype(dtype)


def gaussian_error(
    rng: np.random.Generator, sigma: float, size: int | tuple, q_bits: int
) -> np.ndarray:
    """Sample rounded-Gaussian errors, reduced into Z_{2^q_bits}.

    SimplePIR samples from the discrete Gaussian; rounding a continuous
    Gaussian is the standard implementation (and what the SimplePIR
    codebase itself does) -- statistically within 2^-40 of the target
    for the sigmas used here.
    """
    raw = np.rint(rng.normal(0.0, sigma, size=size)).astype(np.int64)
    return modular.to_ring(raw, q_bits)


def ternary_secret(
    rng: np.random.Generator, n: int, q_bits: int
) -> np.ndarray:
    """Sample a uniformly ternary secret vector in {-1, 0, 1}^n mod q."""
    raw = rng.integers(-1, 2, size=n, dtype=np.int64)
    return modular.to_ring(raw, q_bits)


def ternary_secret_signed(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sample a ternary secret as small signed integers (for RLWE)."""
    return rng.integers(-1, 2, size=n, dtype=np.int64)
