"""Document corpus model.

A *document* in the paper is a dynamically generated web page identified by
its URL. For the simulation we need, per document: a stable URL (hashing key),
a size in bytes (network-traffic accounting, disk-space contention), and an
index into the popularity ranking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class DocumentSpec:
    """Immutable description of one document in the corpus.

    Attributes
    ----------
    doc_id:
        Dense integer id, ``0 .. corpus_size - 1``.
    url:
        The document's URL — the key fed to the hashing schemes.
    size_bytes:
        Transfer/storage size of the document body.
    """

    doc_id: int
    url: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise ValueError(f"doc_id must be >= 0, got {self.doc_id}")
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be > 0, got {self.size_bytes}")


class Corpus:
    """An indexed collection of :class:`DocumentSpec`.

    Provides O(1) lookup by id and by URL, plus aggregate size statistics
    used to configure the limited-disk experiments (Figure 9 sets each
    cache's disk to 5 % of the total corpus size).
    """

    def __init__(self, documents: Sequence[DocumentSpec]) -> None:
        if not documents:
            raise ValueError("corpus must contain at least one document")
        self._docs: List[DocumentSpec] = list(documents)
        self._by_url: Dict[str, DocumentSpec] = {}
        for expected_id, doc in enumerate(self._docs):
            if doc.doc_id != expected_id:
                raise ValueError(
                    f"documents must be densely numbered: position {expected_id} "
                    f"holds doc_id {doc.doc_id}"
                )
            if doc.url in self._by_url:
                raise ValueError(f"duplicate URL in corpus: {doc.url}")
            self._by_url[doc.url] = doc
        self._total_bytes = sum(d.size_bytes for d in self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[DocumentSpec]:
        return iter(self._docs)

    def __getitem__(self, doc_id: int) -> DocumentSpec:
        return self._docs[doc_id]

    @property
    def total_bytes(self) -> int:
        """Sum of all document sizes (denominator of Fig. 9's 5 % disk rule)."""
        return self._total_bytes

    def mean_size(self) -> float:
        """Average document size in bytes."""
        return self._total_bytes / len(self._docs)

    def urls(self) -> List[str]:
        """All URLs, in doc_id order."""
        return [d.url for d in self._docs]


#: Arithmetic mean of the generated sizes: 8 KiB, a typical dynamically
#: generated HTML page.
MEAN_SIZE = 8 * 1024
#: Log-space standard deviation of the generated sizes.
SIZE_SIGMA = 0.6
#: Every document's URL is ``f"{URL_PREFIX}/{doc_id}.html"``.
URL_PREFIX = "http://origin.example.com/doc"


def seed_corpus_rng(seed: int) -> random.Random:
    """Deterministic corpus RNG derived from an experiment seed.

    The derivation is fixed so that a corpus built in a sweep worker process
    is byte-identical to one built in the parent from the same seed.
    """
    return random.Random(seed * 7919 + 13)


def build_corpus(
    num_documents: int,
    rng: Optional[random.Random] = None,
    fixed_size: Optional[int] = None,
) -> Corpus:
    """Generate a corpus with log-normally distributed document sizes.

    Web object sizes are famously heavy-tailed; the conventional model is a
    log-normal body (:data:`MEAN_SIZE`, :data:`SIZE_SIGMA`). Pass ``fixed_size`` to
    make every document the same size (useful in unit tests where byte
    accounting must be predictable).
    """
    if num_documents <= 0:
        raise ValueError(f"num_documents must be positive, got {num_documents}")
    rng = rng if rng is not None else random.Random(0)
    docs = []
    if fixed_size is not None:
        if fixed_size <= 0:
            raise ValueError(f"fixed_size must be > 0, got {fixed_size}")
        sizes = [fixed_size] * num_documents
    else:
        # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); solve for mu.
        import math

        mu = math.log(MEAN_SIZE) - SIZE_SIGMA * SIZE_SIGMA / 2.0
        sizes = [
            max(64, int(rng.lognormvariate(mu, SIZE_SIGMA)))
            for _ in range(num_documents)
        ]
    for doc_id in range(num_documents):
        docs.append(
            DocumentSpec(
                doc_id=doc_id,
                url=f"{URL_PREFIX}/{doc_id}.html",
                size_bytes=sizes[doc_id],
            )
        )
    return Corpus(docs)
