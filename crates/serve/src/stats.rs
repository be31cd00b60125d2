//! Serving-side statistics, exported through the workspace's JSON
//! machinery ([`mining_types::json`]) exactly like
//! [`mining_types::MiningStats`] — byte-stable key order, no serde.

use crate::cache::CacheStats;
use mining_types::json::{Arr, Obj};

/// Bump when the serving-stats JSON layout changes.
/// v2: added the per-query-kind `queries` latency section.
/// v3: added the `reloads` hot-reload counter.
/// v4: dropped the `shards` count (a generation is one index).
pub const SERVE_SCHEMA_VERSION: u64 = 4;

/// Counters maintained by the TCP server ([`crate::server`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered (any response kind).
    pub requests: u64,
    /// Connections dropped for malformed or oversized frames.
    pub protocol_errors: u64,
    /// Connections dropped for idling past the read timeout.
    pub timeouts: u64,
    /// Worker threads in the pool.
    pub workers: u64,
}

impl ServerCounters {
    fn to_json(self) -> String {
        Obj::new()
            .u64("connections", self.connections)
            .u64("requests", self.requests)
            .u64("protocol_errors", self.protocol_errors)
            .u64("timeouts", self.timeouts)
            .u64("workers", self.workers)
            .finish()
    }
}

/// Per-query-kind latency digest, distilled from the server's
/// [`crate::metrics::ServeMetrics`] histograms (quantization error is
/// bounded at ≤ 12.5 % by the log-bucket layout).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryStat {
    /// Query kind label (`"all"` aggregates every kind).
    pub query: String,
    /// Requests of this kind answered so far.
    pub count: u64,
    /// Median service latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile service latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile service latency, milliseconds.
    pub p99_ms: f64,
}

impl QueryStat {
    fn to_json(&self) -> String {
        Obj::new()
            .str("query", &self.query)
            .u64("count", self.count)
            .f64("p50_ms", self.p50_ms)
            .f64("p90_ms", self.p90_ms)
            .f64("p99_ms", self.p99_ms)
            .finish()
    }
}

/// A point-in-time report over the store (and optionally the server).
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Current dataset generation (0 = nothing loaded yet).
    pub generation: u64,
    /// Hot reloads performed after the initial load (see
    /// [`crate::Store::reload`]).
    pub reloads: u64,
    /// Frequent itemsets served.
    pub itemsets: u64,
    /// Rules served.
    pub rules: u64,
    /// Total prefix-trie nodes.
    pub trie_nodes: u64,
    /// Transactions in the mined database.
    pub num_transactions: u64,
    /// Query-cache counters.
    pub cache: CacheStats,
    /// TCP server counters, when serving over the wire.
    pub server: Option<ServerCounters>,
    /// Per-query-kind latency digests, when serving over the wire
    /// (filled from the server's metrics; in-process stores have none).
    pub queries: Option<Vec<QueryStat>>,
}

impl ServeStats {
    /// Compact JSON document (stable key order).
    pub fn to_json(&self) -> String {
        let cache = Obj::new()
            .u64("capacity", self.cache.capacity)
            .u64("entries", self.cache.entries)
            .u64("value_bytes", self.cache.value_bytes)
            .u64("hits", self.cache.hits)
            .u64("misses", self.cache.misses)
            .u64("insertions", self.cache.insertions)
            .u64("evictions", self.cache.evictions)
            .f64("hit_rate", self.cache.hit_rate())
            .finish();
        let server = match self.server {
            Some(s) => s.to_json(),
            None => "null".to_string(),
        };
        let queries = match &self.queries {
            Some(rows) => {
                let mut arr = Arr::new();
                for row in rows {
                    arr.raw(&row.to_json());
                }
                arr.finish()
            }
            None => "null".to_string(),
        };
        Obj::new()
            .u64("schema_version", SERVE_SCHEMA_VERSION)
            .u64("generation", self.generation)
            .u64("reloads", self.reloads)
            .u64("itemsets", self.itemsets)
            .u64("rules", self.rules)
            .u64("trie_nodes", self.trie_nodes)
            .u64("num_transactions", self.num_transactions)
            .raw("cache", &cache)
            .raw("server", &server)
            .raw("queries", &queries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeStats {
        ServeStats {
            generation: 2,
            reloads: 1,
            itemsets: 100,
            rules: 30,
            trie_nodes: 150,
            num_transactions: 1000,
            cache: CacheStats {
                capacity: 64,
                entries: 10,
                value_bytes: 500,
                hits: 9,
                misses: 1,
                insertions: 1,
                evictions: 0,
            },
            server: None,
            queries: None,
        }
    }

    #[test]
    fn json_shape_without_server() {
        let json = sample().to_json();
        assert!(
            json.starts_with(
                "{\"schema_version\":4,\"generation\":2,\"reloads\":1,\"itemsets\":100,"
            ),
            "{json}"
        );
        assert!(json.contains("\"server\":null"), "{json}");
        assert!(json.contains("\"queries\":null"), "{json}");
        assert!(json.contains("\"hit_rate\":0.9"), "{json}");
        let keys = mining_types::json::collect_keys(&json);
        assert!(keys.contains(&"cache".to_string()));
        assert!(keys.contains(&"evictions".to_string()));
    }

    #[test]
    fn json_with_server() {
        let mut s = sample();
        s.server = Some(ServerCounters {
            connections: 3,
            requests: 40,
            protocol_errors: 1,
            timeouts: 0,
            workers: 8,
        });
        s.queries = Some(vec![QueryStat {
            query: "all".to_string(),
            count: 40,
            p50_ms: 0.5,
            p90_ms: 1.25,
            p99_ms: 4.0,
        }]);
        let json = s.to_json();
        assert!(json.contains("\"server\":{\"connections\":3"), "{json}");
        assert!(
            json.contains("\"queries\":[{\"query\":\"all\",\"count\":40,\"p50_ms\":0.5"),
            "{json}"
        );
    }
}
