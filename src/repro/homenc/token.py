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

The ``a`` halves of every token's hint ciphertexts are the same for
all clients: :meth:`TokenFactory.a_products` computes them once per
index generation, clients fetch them once, and each token carries only
``b`` halves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.homenc.double import (
    AProduct,
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


def key_groups(schemes: dict[str, DoubleLheScheme]) -> list[list[str]]:
    """Service names that share one encrypted-key upload.

    Services whose inner lattice dimension, switch modulus and outer
    ring agree share one inner secret, one outer key and one upload
    (Appendix A.3).  Each group is sorted by name; its first scheme's
    :attr:`~DoubleLheScheme.outer_a` is the ``A`` the shared key is
    encrypted under, on the client and in the server's ``a``-products.
    """
    groups: dict[tuple, list[str]] = {}
    for name in sorted(schemes):
        params = schemes[name].params
        sig = (
            params.inner.n,
            params.switch_modulus,
            params.outer_n,
            params.outer_prime_bits,
            params.outer_num_primes,
        )
        groups.setdefault(sig, []).append(name)
    return list(groups.values())


class TokenFactory:
    """Server-side token minting over a set of registered services."""

    def __init__(self) -> None:
        self._services: dict[str, ServiceCrypto] = {}
        self._lock = threading.Lock()
        self._a_products: dict[str, AProduct] | None = None  # guarded-by: _lock

    def register(
        self, name: str, scheme: DoubleLheScheme, prep: PreprocessedMatrix
    ) -> None:
        if name in self._services:
            raise ValueError(f"service {name!r} already registered")
        self._services[name] = ServiceCrypto(scheme=scheme, prep=prep)
        with self._lock:
            self._a_products = None

    def a_products(self) -> dict[str, AProduct]:
        """Every service's ``a``-product: the ``a`` halves of all the
        hints this factory mints, one key-product pass per service over
        the public ``A`` of its key group (:func:`key_groups`).

        Computed on the first call -- by whichever request comes first
        -- and kept: it changes only with the index generation.
        """
        with self._lock:
            if self._a_products is None:
                schemes = {n: svc.scheme for n, svc in self._services.items()}
                products = {}
                for names in key_groups(schemes):
                    outer_a = schemes[names[0]].outer_a
                    for name in names:
                        svc = self._services[name]
                        products[name] = svc.scheme.a_product(
                            svc.prep, outer_a
                        )
                self._a_products = products
            return self._a_products

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
        chunk for the whole batch instead of once per client.  Each
        client costs one key-product pass per service; the shared ``a``
        halves come from :meth:`a_products`.

        Every key is checked against its service's scheme first
        (:meth:`DoubleLheScheme.check_key`); a malformed one, a missing
        service or a service this factory does not serve raises
        ``ValueError`` naming the client and service.
        """
        for i, enc_keys in enumerate(enc_keys_list):
            missing = set(self._services) - set(enc_keys)
            if missing:
                raise ValueError(
                    f"client {i}: missing encrypted keys for services"
                    f" {sorted(missing)}"
                )
            unserved = set(enc_keys) - set(self._services)
            if unserved:
                raise ValueError(
                    f"client {i}: encrypted keys for services"
                    f" {sorted(unserved)} this mint does not serve"
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
        a_products = self.a_products()
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
                        [ek[name] for ek in enc_keys_list],
                        svc.prep,
                        a_products[name],
                    )
                for client, hint in enumerate(hints):
                    per_client[client][name] = hint
        return [TokenPayload(hints=hints) for hints in per_client]


def make_client_keys(
    schemes: dict[str, DoubleLheScheme],
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, ClientKeys], dict[str, EncryptedKey], int]:
    """Generate per-service keys, sharing uploads where possible.

    Each group of :func:`key_groups` shares one inner ternary secret,
    one outer key, and hence one encrypted-key upload (Appendix A.3),
    encrypted under the group's first scheme's public ``A``.  Each
    service's keys carry its inner mask ``A s + e``, so the query-time
    encryption is one add (the SS6.3 rule: what does not depend on the
    query is done ahead of it).  Returns the per-service keys, the
    per-service encrypted keys, and the total upload size in bytes
    counting each shared upload once.
    """
    rng = sampling.resolve_rng(rng)
    # Mask noise is drawn on the side: every key and z_b below is the
    # same draw it would be without the masks.
    mask_rng = sampling.child_rng(rng)
    keys: dict[str, ClientKeys] = {}
    enc_keys: dict[str, EncryptedKey] = {}
    upload_bytes = 0
    for names in key_groups(schemes):
        leader = schemes[names[0]]
        shared_signed = sampling.ternary_secret_signed(
            rng, leader.params.inner.n
        )
        outer_sk = leader.outer.gen_secret(rng)
        shared_keys = {}
        for name in names:
            scheme = schemes[name]
            inner_sk = SecretKey(
                s=modular.to_ring(shared_signed, scheme.params.inner.q_bits),
                params=scheme.params.inner,
            )
            shared_keys[name] = ClientKeys(
                inner=inner_sk,
                outer=outer_sk,
                mask=scheme.inner.mask(inner_sk, mask_rng),
            )
        # One encrypted-key upload serves the whole group: the inner
        # secret, the outer key and the leader's public A are all that
        # z_i depends on.
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
    the eventual query string.  The schemes adopt the factory's
    ``a``-products first, as a client does once per generation.
    """
    for name, a_product in factory.a_products().items():
        schemes[name].adopt_a_product(a_product, factory.service(name).prep.rows)
    keys, enc_keys, upload_bytes = make_client_keys(schemes, rng)
    # tiptoe-lint: disable=taint-raise -- mint()'s error paths embed only service *names* and a rejected key's shape and dtype (public configuration), never the encrypted key material
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
