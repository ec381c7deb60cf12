"""Tiptoe's core: the private search engine itself.

Modules, bottom-up:

* :mod:`costs` -- word-op and core-second accounting;
* :mod:`config` -- the deployment configuration;
* :mod:`indexer` -- the data-loading batch jobs (SS3.2): embed,
  cluster, build matrices, preprocess cryptography;
* :mod:`ranking` -- the private nearest-neighbor protocol (SS4);
* :mod:`url_service` -- PIR URL retrieval (SS5);
* :mod:`cluster_runtime` -- one ranking shard of the cluster cut (SS4.3);
* :mod:`client` -- the Tiptoe client;
* :mod:`engine` -- top-level assembly and public API.
"""

from repro.core.client import SearchResult, TiptoeClient
from repro.core.config import TiptoeConfig
from repro.core.engine import TiptoeEngine
from repro.core.indexer import TiptoeIndex

__all__ = [
    "SearchResult",
    "TiptoeClient",
    "TiptoeConfig",
    "TiptoeEngine",
    "TiptoeIndex",
]
