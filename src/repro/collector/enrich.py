"""Dataset enrichment — and then IP anonymisation.

The paper's footnote 1: the raw IP is used to extract meta-data (provider,
country, data-center status) and is *then* anonymised with hashing.  The
enricher performs exactly that pass over a collected store: it resolves
each record's IP against the GeoIP database, the deny list cascade and the
ranking service, then replaces the raw IP with a salted token.

The store's columns are the only copy of the verdicts: a trace's
``enrich.geo`` span is joined from them when the trace is read (see
:class:`repro.obs.trace.TraceArchive`).
"""

from __future__ import annotations

from repro.collector.store import ImpressionStore
from repro.geo.ipdb import GeoIpDatabase, IpRecord
from repro.geo.resolver import DataCenterResolver, DcVerdict
from repro.util.hashing import anonymize_ip
from repro.web.ranking import RankingService


class Enricher:
    """Fills IP-derived columns and anonymises the dataset in place."""

    def __init__(self, ipdb: GeoIpDatabase, resolver: DataCenterResolver,
                 ranking: RankingService, salt: str = "adaudit") -> None:
        self.ipdb = ipdb
        self.resolver = resolver
        self.ranking = ranking
        self.salt = salt
        # ip → (geo record, cascade verdict, anonymised token).  The same
        # device produces many impressions, so each distinct address runs
        # the trie walk + deny-list cascade + salted hash exactly once per
        # enrichment pass.  Verdict replay keeps the resolver's
        # stage-count bookkeeping identical to the uncached cascade.
        self._ip_memo: dict[str, tuple["IpRecord | None", DcVerdict, str]] = {}

    def _resolve_ip(self, ip: str) -> tuple["IpRecord | None", DcVerdict, str]:
        cached = self._ip_memo.get(ip)
        if cached is None:
            cached = (self.ipdb.lookup(ip), self.resolver.classify(ip),
                      anonymize_ip(ip, salt=self.salt))
            self._ip_memo[ip] = cached
        else:
            self.resolver.stage_counts[cached[1].stage] += 1
        return cached

    def enrich_store(self, store: ImpressionStore) -> int:
        """Enrich + anonymise every not-yet-enriched record; returns count.

        Idempotent: records whose ``ip_token`` is already set are skipped
        (their raw IP is gone, so there is nothing left to resolve).

        Streams over :meth:`ImpressionStore.pending_enrichment` and writes
        the enrichment columns in place via
        :meth:`ImpressionStore.enrich_at`, which never materialises a
        record view, let alone a replacement frozen dataclass per record.
        """
        enriched = 0
        for index, ip, domain in store.pending_enrichment():
            ip_record, verdict, ip_token = self._resolve_ip(ip)
            rank = self.ranking.rank_of(domain)
            store.enrich_at(
                index,
                ip_token=ip_token,
                provider=ip_record.provider if ip_record else "",
                country=ip_record.country if ip_record else "",
                global_rank=rank,
                is_datacenter=verdict.is_datacenter,
                dc_stage=verdict.stage.value,
            )
            enriched += 1
        return enriched
