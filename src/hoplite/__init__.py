"""Desk-scale many-hop retrieval over token-level lexical encodings.

The pieces, bottom up: a deterministic trigram encoder turns passages and
queries into token matrices; a token index (flat or IVF) proposes
candidates; focused late-interaction scoring ranks them; a two-stage
condenser extracts facts that grow the query hop over hop; supervision
utilities order gold passages into hops without labeled orderings; and an
evaluation layer scores trace files. Everything is seeded and reproducible
on a CPU.
"""

__version__ = "0.1.0"
