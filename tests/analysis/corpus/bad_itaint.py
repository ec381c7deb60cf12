"""Known-bad interprocedural taint: secrets flow through helpers.

Each function after the helpers trips exactly one ``taint-*`` rule.
None of them sources a secret itself: every finding rests on the
helpers' summaries.
"""

import logging
import pickle

logger = logging.getLogger(__name__)


def fresh_secret(scheme, rng):
    sk = scheme.gen_secret(rng)
    return sk


def relabelled(scheme, rng):
    material = fresh_secret(scheme, rng)
    return material


def two_hop_log(scheme, rng):
    key = relabelled(scheme, rng)
    logger.info("minted key %s", key)  # BAD: secret via two helpers


def hop_branch(scheme, rng):
    key = fresh_secret(scheme, rng)
    if key:  # BAD: control flow on helper-minted key material
        return 1
    return 0


def hop_raise(scheme, rng):
    key = fresh_secret(scheme, rng)
    raise ValueError(f"unusable key {key}")  # BAD: secret in message


def hop_wire(scheme, rng):
    key = fresh_secret(scheme, rng)
    return pickle.dumps(key)  # BAD: helper-minted secret serialized
