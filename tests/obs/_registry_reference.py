"""A registry that resolves every accessor call from scratch: the oracle
for :class:`repro.obs.registry.MetricsRegistry`'s bound series.

``counter`` / ``gauge`` / ``histogram`` are the accessors the registry had
before it kept each series it resolved: every call checks the name,
looks the family up (raising on a kind clash), checks each label name and
sorts the labels into the family's key.  Everything else - the
``record_query`` feed, the exports - is inherited, so any difference in
output comes from the look-ups alone.
"""

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class ReferenceRegistry(MetricsRegistry):
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        family = self._family(name, "counter", help)
        return self._instance(family, labels, lambda: Counter(labels))

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        family = self._family(name, "gauge", help)
        return self._instance(family, labels, lambda: Gauge(labels))

    def histogram(
        self, name: str, help: str = "", buckets: list[float] | None = None, **labels
    ) -> Histogram:
        family = self._family(name, "histogram", help, buckets)
        return self._instance(family, labels, lambda: Histogram(labels, family.bounds))
