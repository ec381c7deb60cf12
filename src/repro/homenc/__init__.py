"""Linearly homomorphic encryption with preprocessing and compression.

This subpackage composes the inner Regev layer (:mod:`repro.lwe`) and
the outer RLWE layer (:mod:`repro.rlwe`) into the augmented scheme of
Appendix A: the server evaluates the linear part of inner decryption
*under the outer encryption*, so the client never downloads the large
SimplePIR hint.  The query-token machinery of SS6.3 moves the outer
evaluation off the latency-critical path.
"""

from repro.homenc.double import (
    AProduct,
    ClientKeys,
    CompressedHint,
    DoubleLheParams,
    DoubleLheScheme,
    EncryptedKey,
    GenerationMismatchError,
    PreprocessedMatrix,
)
from repro.homenc.token import QueryToken, TokenFactory, TokenReuseError

__all__ = [
    "AProduct",
    "ClientKeys",
    "CompressedHint",
    "DoubleLheParams",
    "DoubleLheScheme",
    "EncryptedKey",
    "GenerationMismatchError",
    "PreprocessedMatrix",
    "QueryToken",
    "TokenFactory",
    "TokenReuseError",
]
