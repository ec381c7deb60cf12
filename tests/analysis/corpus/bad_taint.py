"""Known-bad secret-taint snippets (tiptoe-lint self-test corpus)."""

import logging
import pickle

logger = logging.getLogger(__name__)


def branches_on_secret(scheme, rng):
    sk = scheme.gen_secret(rng)
    if sk.s[0] == 0:  # BAD: control flow depends on key material
        return None
    return sk


def loops_on_secret(sk):
    while sk[0] > 0:  # BAD: loop condition depends on the secret
        sk = sk[1:]
    return sk


def prints_secret(sk):
    print("debug key:", sk)  # BAD: secret reaches a terminal


def logs_secret(secret_key):
    logger.info("key=%s", secret_key)  # BAD: secret reaches the log tree


def logs_query_mask(keys):
    logger.debug("mask=%s", keys.mask)  # BAD: A s + e is key material


def raises_with_secret(sk):
    raise ValueError(f"bad key {sk}")  # BAD: secret in exception message


def serializes_secret(sk):
    return pickle.dumps(sk)  # BAD: plaintext secret on the wire


def taint_flows_through_assignment(scheme, rng):
    keys_material = scheme.keygen(rng)
    derived = keys_material
    masked = derived[0] + 1
    if masked:  # BAD: still derived from the keygen output
        return True
    return False


def copied_secret(scheme, rng):
    sk = scheme.gen_secret(rng)
    return [x for x in sk]


def branches_on_copied_secret(scheme, rng):
    if copied_secret(scheme, rng):  # BAD: a comprehension keeps the taint
        return True
    return False


# Module scope is analysed like a function body.
SK = scheme.gen_secret(RNG)
print(SK)  # BAD: a module-level secret reaches a terminal
if SK[0]:  # BAD: module-level control flow on key material
    pass
