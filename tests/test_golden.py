"""Byte-stability of certificates across performance work.

The digest below is the sha256 of every canonical certificate text over the
first 1000 corpus specs, concatenated in corpus order.  A change to how the
map, the oracles or the serializer compute their results must leave it
unchanged; a deliberate change to the certificate format must update it and
say so in CHANGES.md.
"""

import hashlib
import json

from corpus import build_corpus
from escapepoint import certificate_to_jsonable, compute_escape

CORPUS_DIGEST = "79bc2eb0a0dad86b4b78e6bcae248c68a176d804b7bcfb99742657635df16de4"


def canonical_text(spec) -> str:
    cert = certificate_to_jsonable(compute_escape(spec))
    return json.dumps(cert, indent=2, sort_keys=True) + "\n"


def test_corpus_certificates_are_byte_identical():
    digest = hashlib.sha256()
    for spec in build_corpus(1000):
        digest.update(canonical_text(spec).encode())
    assert digest.hexdigest() == CORPUS_DIGEST
