//! Per-query serving metrics on the [`eclat_obs`] registry.
//!
//! One [`ServeMetrics`] instance accompanies a server: every answered
//! request increments a per-query-kind counter and feeds a log-bucketed
//! latency histogram (plus the `all` aggregate), and a render pass
//! syncs the store/cache/server snapshot counters into the same
//! registry so `eclat query --metrics` returns one Prometheus-style
//! text document. The histogram quantiles are also exported as
//! structured [`QueryStat`] rows inside the `Stats` JSON, which is what
//! `servload` compares its client-side percentiles against.

use crate::protocol::Query;
use crate::stats::{QueryStat, ServeStats};
use eclat_obs::metrics::{Counter, Histogram, Registry, RENDERED_QUANTILES};
use std::sync::Arc;
use std::time::Duration;

/// Query-kind labels, aggregate first. Order is the row order of
/// [`ServeMetrics::query_stats`].
pub const QUERY_KINDS: [&str; 9] = [
    "all",
    "ping",
    "support",
    "subsets",
    "supersets",
    "rules_for",
    "top_k",
    "stats",
    "metrics",
];

/// Request counters and latency histograms for one server, keyed by
/// query kind, on a private [`Registry`].
pub struct ServeMetrics {
    registry: Registry,
    requests: Vec<Arc<Counter>>,
    latency: Vec<Arc<Histogram>>,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// A fresh registry with one counter + histogram per query kind.
    pub fn new() -> ServeMetrics {
        let registry = Registry::new();
        let requests = QUERY_KINDS
            .iter()
            .map(|k| registry.counter(&format!("eclat_serve_requests_total{{query=\"{k}\"}}")))
            .collect();
        let latency = QUERY_KINDS
            .iter()
            .map(|k| registry.histogram(&format!("eclat_serve_latency_seconds{{query=\"{k}\"}}")))
            .collect();
        ServeMetrics {
            registry,
            requests,
            latency,
        }
    }

    /// The metrics label of a query.
    pub fn kind_of(query: &Query) -> &'static str {
        match query {
            Query::Ping => "ping",
            Query::Support { .. } => "support",
            Query::Subsets { .. } => "subsets",
            Query::Supersets { .. } => "supersets",
            Query::RulesFor { .. } => "rules_for",
            Query::TopK { .. } => "top_k",
            Query::Stats => "stats",
            Query::Metrics => "metrics",
        }
    }

    fn index_of(kind: &str) -> usize {
        QUERY_KINDS.iter().position(|&k| k == kind).unwrap_or(0)
    }

    /// Record one answered request of `kind` (also feeds `all`).
    pub fn observe(&self, kind: &str, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let idx = Self::index_of(kind);
        self.requests[idx].inc();
        self.latency[idx].observe_ns(ns);
        if idx != 0 {
            self.requests[0].inc();
            self.latency[0].observe_ns(ns);
        }
    }

    /// One [`QueryStat`] row per kind that has answered at least one
    /// request, in [`QUERY_KINDS`] order (`all` first).
    pub fn query_stats(&self) -> Vec<QueryStat> {
        QUERY_KINDS
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.requests[i].get() > 0)
            .map(|(i, &kind)| {
                let h = &self.latency[i];
                let ms = |q: f64| h.quantile_ns(q) / 1e6;
                QueryStat {
                    query: kind.to_string(),
                    count: self.requests[i].get(),
                    p50_ms: ms(RENDERED_QUANTILES[0]),
                    p90_ms: ms(RENDERED_QUANTILES[1]),
                    p99_ms: ms(RENDERED_QUANTILES[2]),
                }
            })
            .collect()
    }

    /// Sync the snapshot counters of `stats` into the registry and
    /// render the whole thing as Prometheus-style text.
    pub fn render(&self, stats: &ServeStats) -> String {
        let r = &self.registry;
        r.gauge("eclat_serve_generation").set(stats.generation);
        r.gauge("eclat_serve_itemsets").set(stats.itemsets);
        r.gauge("eclat_serve_rules").set(stats.rules);
        r.counter("eclat_serve_cache_hits_total")
            .store(stats.cache.hits);
        r.counter("eclat_serve_cache_misses_total")
            .store(stats.cache.misses);
        r.counter("eclat_serve_cache_insertions_total")
            .store(stats.cache.insertions);
        r.counter("eclat_serve_cache_evictions_total")
            .store(stats.cache.evictions);
        r.gauge("eclat_serve_cache_entries")
            .set(stats.cache.entries);
        if let Some(s) = stats.server {
            r.counter("eclat_serve_connections_total")
                .store(s.connections);
            r.counter("eclat_serve_server_requests_total")
                .store(s.requests);
            r.counter("eclat_serve_protocol_errors_total")
                .store(s.protocol_errors);
            r.counter("eclat_serve_timeouts_total").store(s.timeouts);
        }
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use mining_types::Itemset;

    fn stats() -> ServeStats {
        ServeStats {
            generation: 3,
            reloads: 0,
            itemsets: 10,
            rules: 5,
            trie_nodes: 20,
            num_transactions: 100,
            cache: CacheStats {
                capacity: 64,
                entries: 2,
                value_bytes: 99,
                hits: 7,
                misses: 3,
                insertions: 3,
                evictions: 1,
            },
            server: None,
            queries: None,
        }
    }

    #[test]
    fn kinds_cover_every_query() {
        let m = ServeMetrics::new();
        let queries = [
            Query::Ping,
            Query::Support {
                itemset: Itemset::of(&[1]),
            },
            Query::Stats,
            Query::Metrics,
        ];
        for q in &queries {
            let kind = ServeMetrics::kind_of(q);
            assert!(QUERY_KINDS.contains(&kind), "{kind}");
            m.observe(kind, Duration::from_micros(50));
        }
        let rows = m.query_stats();
        assert_eq!(rows[0].query, "all");
        assert_eq!(rows[0].count, queries.len() as u64);
        let ping = rows.iter().find(|r| r.query == "ping").unwrap();
        assert_eq!(ping.count, 1);
        // 50 µs = 0.05 ms within the ≤ 12.5 % bucket quantization.
        assert!(
            (ping.p50_ms - 0.05).abs() / 0.05 <= 0.125,
            "{}",
            ping.p50_ms
        );
        assert!(rows.iter().all(|r| r.count > 0), "quiet kinds are omitted");
    }

    #[test]
    fn render_includes_requests_and_synced_snapshot() {
        let m = ServeMetrics::new();
        m.observe("support", Duration::from_millis(2));
        let text = m.render(&stats());
        assert!(
            text.contains("eclat_serve_requests_total{query=\"support\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("eclat_serve_requests_total{query=\"all\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("eclat_serve_latency_seconds{query=\"all\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("eclat_serve_cache_hits_total 7"), "{text}");
        assert!(text.contains("eclat_serve_generation 3"), "{text}");
        // Quiet kinds still render (count 0) in the full exposition.
        assert!(
            text.contains("eclat_serve_requests_total{query=\"ping\"} 0"),
            "{text}"
        );
    }
}
