"""Query tokens: moving communication off the latency-critical path.

SS6.3 observes that the outer encryption of the client's inner secret
key, and the server's evaluation of the hint-secret product under it,
are both *query-independent*.  The client therefore uploads its
encrypted key ahead of time, and the server answers with the
compressed hint products -- a "query token".  The client may stockpile
tokens; each token authorizes exactly one query, because reusing the
inner secret key for two query vectors breaks semantic security.

Appendix A.3's shared-key optimization is also implemented here: the
ranking and URL services can share one inner ternary secret (and hence
one encrypted-key upload) when their inner lattice dimensions agree,
which halves the ahead-of-time upload.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.homenc.double import (
    ClientKeys,
    CompressedHint,
    DoubleLheScheme,
    EncryptedKey,
    PreprocessedMatrix,
)
from repro.lwe import modular, sampling
from repro.lwe.regev import SecretKey
from repro.obs import runtime as obs


class TokenReuseError(RuntimeError):
    """Raised when a single-use query token is consumed twice."""


@dataclass
class ServiceCrypto:
    """One service's double-layer scheme plus its preprocessed matrix."""

    scheme: DoubleLheScheme
    prep: PreprocessedMatrix


@dataclass
class TokenPayload:
    """What the server returns for one token request (wire format)."""

    hints: dict[str, CompressedHint]

    def wire_bytes(self) -> int:
        return sum(h.wire_bytes() for h in self.hints.values())


@dataclass
class QueryToken:
    """Client-side single-use search credential.

    Holds the per-service client keys and the decrypted hint products;
    ``consume`` hands them out exactly once.
    """

    keys: dict[str, ClientKeys]
    hint_products: dict[str, np.ndarray]
    upload_bytes: int = 0
    download_bytes: int = 0
    _used: bool = field(default=False, repr=False)  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def used(self) -> bool:
        with self._lock:
            return self._used

    def consume(self) -> tuple[dict[str, ClientKeys], dict[str, np.ndarray]]:
        """Return the key material for one query; single use enforced.

        Thread-safe: the used-flag check-and-set runs under a lock, so
        two threads racing on one token cannot both win (the prefetcher
        and ``search`` may touch tokens concurrently).
        """
        with self._lock:
            if self._used:
                raise TokenReuseError(
                    "query tokens are single-use: reusing the secret key for"
                    " a second query vector would break semantic security"
                    " (SS6.3)"
                )
            self._used = True
        return self.keys, self.hint_products


class TokenFactory:
    """Server-side token minting over a set of registered services."""

    def __init__(self) -> None:
        self._services: dict[str, ServiceCrypto] = {}

    def register(
        self, name: str, scheme: DoubleLheScheme, prep: PreprocessedMatrix
    ) -> None:
        if name in self._services:
            raise ValueError(f"service {name!r} already registered")
        self._services[name] = ServiceCrypto(scheme=scheme, prep=prep)

    @property
    def service_names(self) -> tuple[str, ...]:
        return tuple(self._services)

    def service(self, name: str) -> ServiceCrypto:
        return self._services[name]

    def mint(self, enc_keys: dict[str, EncryptedKey]) -> TokenPayload:
        """Mint one client's token: :meth:`mint_many` of one."""
        return self.mint_many([enc_keys])[0]

    def mint_many(
        self, enc_keys_list: Sequence[dict[str, EncryptedKey]]
    ) -> list[TokenPayload]:
        """Evaluate every service's hint under each client's keys.

        Each element of ``enc_keys_list`` maps every service name to
        the encrypted key to use for it; with the shared-key
        optimization several names map to the same
        :class:`EncryptedKey` object, uploaded once.  The K clients go
        through :meth:`DoubleLheScheme.evaluate_hint_batch` together,
        so each service's plaintext-side forward NTTs run once per
        chunk for the whole batch instead of once per client.

        Every key is checked against its service's scheme first
        (:meth:`DoubleLheScheme.check_key`); a malformed one raises
        ``ValueError`` naming the client and service.
        """
        for i, enc_keys in enumerate(enc_keys_list):
            missing = set(self._services) - set(enc_keys)
            if missing:
                raise ValueError(
                    f"client {i}: missing encrypted keys for services"
                    f" {missing}"
                )
            for name, svc in self._services.items():
                try:
                    svc.scheme.check_key(enc_keys[name])
                except ValueError as exc:
                    raise ValueError(
                        f"client {i}, service {name!r}: {exc}"
                    ) from None
        per_client: list[dict[str, CompressedHint]] = [
            {} for _ in enc_keys_list
        ]
        with obs.span(
            "token.mint",
            clients=len(enc_keys_list),
            services=len(self._services),
        ):
            for name, svc in self._services.items():
                with obs.span(
                    "token.evaluate_hint",
                    service=name,
                    rows=svc.prep.rows,
                    clients=len(enc_keys_list),
                ):
                    hints = svc.scheme.evaluate_hint_batch(
                        [ek[name] for ek in enc_keys_list], svc.prep
                    )
                for client, hint in enumerate(hints):
                    per_client[client][name] = hint
        return [TokenPayload(hints=hints) for hints in per_client]


def make_client_keys(
    schemes: dict[str, DoubleLheScheme],
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, ClientKeys], dict[str, EncryptedKey], int]:
    """Generate per-service keys, sharing uploads where possible.

    Services whose inner lattice dimension and switch modulus agree
    share one inner ternary secret, one outer key, and hence one
    encrypted-key upload (Appendix A.3).  Returns the per-service keys,
    the per-service encrypted keys, and the total upload size in bytes
    counting each shared upload once.
    """
    rng = sampling.resolve_rng(rng)
    keys: dict[str, ClientKeys] = {}
    enc_keys: dict[str, EncryptedKey] = {}
    upload_bytes = 0
    groups: dict[tuple, list[str]] = {}
    for name, scheme in schemes.items():
        sig = (
            scheme.params.inner.n,
            scheme.params.switch_modulus,
            scheme.params.outer_n,
            scheme.params.outer_prime_bits,
            scheme.params.outer_num_primes,
        )
        groups.setdefault(sig, []).append(name)
    for (n_inner, *_), names in groups.items():
        shared_signed = sampling.ternary_secret_signed(rng, n_inner)
        leader = schemes[names[0]]
        outer_sk = leader.outer.gen_secret(rng)
        shared_keys = {}
        for name in names:
            scheme = schemes[name]
            inner_sk = SecretKey(
                s=modular.to_ring(shared_signed, scheme.params.inner.q_bits),
                params=scheme.params.inner,
            )
            shared_keys[name] = ClientKeys(inner=inner_sk, outer=outer_sk)
        # One encrypted-key upload serves the whole group: the inner
        # secret and outer key coincide, and z_i depends on nothing else.
        enc = leader.encrypt_key(shared_keys[names[0]], rng)
        upload_bytes += enc.wire_bytes()
        for name in names:
            keys[name] = shared_keys[name]
            enc_keys[name] = enc
    return keys, enc_keys, upload_bytes


def request_token(
    schemes: dict[str, DoubleLheScheme],
    factory: TokenFactory,
    rng: np.random.Generator | None = None,
) -> QueryToken:
    """Full client-side token acquisition: keygen, upload, decrypt.

    This is the ahead-of-time phase of SS6.3; nothing here depends on
    the eventual query string.
    """
    keys, enc_keys, upload_bytes = make_client_keys(schemes, rng)
    # tiptoe-lint: disable=itaint-raise -- mint()'s error paths embed only service *names* and a rejected key's shape, dtype and seed length (public configuration), never the encrypted key material
    payload = factory.mint(enc_keys)
    hint_products = {
        name: schemes[name].decrypt_hint_product(keys[name], payload.hints[name])
        for name in schemes
    }
    return QueryToken(
        keys=keys,
        hint_products=hint_products,
        upload_bytes=upload_bytes,
        download_bytes=payload.wire_bytes(),
    )
