//! The lock-free-read store and in-process query engine.
//!
//! A [`Store`] holds one immutable [`Generation`] — an [`Index`] plus its
//! generation number and transaction count — behind one
//! `RwLock<Arc<…>>`: readers hold the lock only long enough to clone the
//! `Arc` (no allocation, no contention with other readers), then run the
//! whole query against that generation. [`Store::load`] builds a complete
//! replacement index **off to the side** and swaps the pointer — reloads
//! never block readers, a reader that started on the old generation
//! finishes on it (its `Arc` keeps the data alive), and every answer
//! comes from exactly one generation.
//!
//! Every query is one lookup or one prefix of the index's own order:
//! support and rules-for look the index up, subsets and supersets take
//! the trie's first `limit` hits, top-k takes the head of a ranked list.
//!
//! Answers are cached in a bounded LRU ([`QueryCache`]) keyed by
//! `(generation, encoded query)` — a reload implicitly invalidates every
//! cached answer even if an in-flight reader races the [`QueryCache::clear`].

use crate::cache::{CacheStats, QueryCache};
use crate::index::{Dataset, Index};
use crate::protocol::{Query, Response, MAX_RESULT_LIMIT};
use crate::stats::{ServeStats, ServerCounters};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Query-cache capacity in entries when the caller does not choose one.
pub const DEFAULT_CACHE_ENTRIES: usize = 4096;

/// One immutable generation of the served index.
#[derive(Debug, Default)]
pub struct Generation {
    index: Index,
    num_transactions: u32,
    generation: u64,
}

impl Generation {
    /// The index every query of this generation reads.
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// Monotonic reload counter (starts at 1 for the first load).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The concurrent query-serving store.
pub struct Store {
    current: RwLock<Arc<Generation>>,
    cache: QueryCache,
    generations: AtomicU64,
    reloads: AtomicU64,
}

impl Store {
    /// An empty store (every query answers "nothing") with a query cache
    /// of `cache_entries` entries (0 disables caching) — load a dataset
    /// with [`Store::load`].
    pub fn new(cache_entries: usize) -> Store {
        Store {
            current: RwLock::new(Arc::default()),
            cache: QueryCache::new(cache_entries),
            generations: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
        }
    }

    /// Build a store pre-loaded with `dataset`.
    pub fn with_dataset(dataset: &Dataset, cache_entries: usize) -> Store {
        let store = Store::new(cache_entries);
        store.load(dataset);
        store
    }

    /// Replace the served dataset. The new index is built while old
    /// readers keep serving; only the final pointer swap takes the write
    /// lock. Returns the new generation.
    pub fn load(&self, dataset: &Dataset) -> u64 {
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        let next = Arc::new(Generation {
            index: Index::build(dataset),
            num_transactions: dataset.num_transactions,
            generation,
        });
        *self.current.write().expect("store lock") = next;
        // Stale inserts from racing readers are keyed by the old
        // generation, so clearing here is an optimization, not required
        // for correctness.
        self.cache.clear();
        generation
    }

    /// [`Store::load`], counted as a *hot reload*: the serve CLI's
    /// snapshot watcher calls this for every swap after the initial
    /// load, so `reloads` in the stats report says how many times the
    /// served dataset changed underneath live traffic.
    pub fn reload(&self, dataset: &Dataset) -> u64 {
        let generation = self.load(dataset);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        generation
    }

    /// Hot reloads performed so far (initial load excluded).
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// The current generation (readers run entirely on it).
    pub fn snapshot(&self) -> Arc<Generation> {
        self.current.read().expect("store lock").clone()
    }

    /// Answer a query, consulting the LRU cache for the cacheable kinds.
    pub fn execute(&self, query: &Query) -> Response {
        match query {
            Query::Ping => return Response::Pong,
            Query::Stats => return Response::StatsJson(self.serve_stats(None).to_json()),
            // Request metrics live with the TCP server, which intercepts
            // this query before it reaches the store.
            Query::Metrics => {
                return Response::Error("metrics are only served over the wire".to_string())
            }
            _ => {}
        }
        let current = self.snapshot();
        let mut key = current.generation.to_le_bytes().to_vec();
        key.extend_from_slice(&query.encode());
        if let Some(hit) = self.cache.get(&key) {
            return Response::decode(&hit).expect("cache holds only encoded responses");
        }
        let response = Self::answer(&current.index, query);
        self.cache.put(key, response.encode());
        response
    }

    fn answer(index: &Index, query: &Query) -> Response {
        match query {
            Query::Ping => Response::Pong,
            Query::Stats | Query::Metrics => {
                Response::Error("stats and metrics handled above".to_string())
            }
            Query::Support { itemset } => Response::Support(index.support(itemset)),
            Query::Subsets { of, limit } => {
                Response::Itemsets(index.subsets_of(of, clamp_limit(*limit)))
            }
            Query::Supersets { of, limit } => {
                Response::Itemsets(index.supersets_of(of, clamp_limit(*limit)))
            }
            Query::RulesFor { antecedent, k } => {
                Response::Rules(index.rules_for(antecedent, clamp_limit(*k)).to_vec())
            }
            Query::TopK { size, k } => {
                Response::Itemsets(index.top_k(*size as usize, clamp_limit(*k)).to_vec())
            }
        }
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Full statistics report, optionally including the TCP server's
    /// counters (the server passes its own; in-process callers pass
    /// `None`).
    pub fn serve_stats(&self, server: Option<ServerCounters>) -> ServeStats {
        let current = self.snapshot();
        ServeStats {
            generation: current.generation,
            reloads: self.reloads(),
            itemsets: current.index.num_itemsets() as u64,
            rules: current.index.num_rules() as u64,
            trie_nodes: current.index.num_trie_nodes() as u64,
            num_transactions: u64::from(current.num_transactions),
            cache: self.cache_stats(),
            server,
            queries: None,
        }
    }
}

fn clamp_limit(limit: u32) -> usize {
    limit.min(MAX_RESULT_LIMIT) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use mining_types::{FrequentSet, Itemset};

    fn iset(raw: &[u32]) -> Itemset {
        Itemset::of(raw)
    }

    fn dataset() -> Dataset {
        let frequent: FrequentSet = [
            (iset(&[1]), 10),
            (iset(&[2]), 8),
            (iset(&[3]), 6),
            (iset(&[1, 2]), 5),
            (iset(&[1, 3]), 4),
            (iset(&[2, 3]), 4),
            (iset(&[1, 2, 3]), 3),
        ]
        .into_iter()
        .collect();
        let rules = assoc_rules::generate(&frequent, 0.0);
        Dataset {
            frequent,
            rules,
            num_transactions: 12,
        }
    }

    #[test]
    fn empty_store_answers_nothing() {
        let store = Store::new(DEFAULT_CACHE_ENTRIES);
        assert_eq!(
            store.execute(&Query::Support {
                itemset: iset(&[1])
            }),
            Response::Support(None)
        );
        assert_eq!(
            store.execute(&Query::TopK { size: 0, k: 5 }),
            Response::Itemsets(Vec::new())
        );
    }

    #[test]
    fn queries_and_cache_agree() {
        let cached = Store::with_dataset(&dataset(), DEFAULT_CACHE_ENTRIES);
        let uncached = Store::with_dataset(&dataset(), 0);
        let queries = [
            Query::Support {
                itemset: iset(&[1, 2]),
            },
            Query::Subsets {
                of: iset(&[1, 2, 3]),
                limit: 100,
            },
            Query::Supersets {
                of: iset(&[2]),
                limit: 100,
            },
            Query::RulesFor {
                antecedent: iset(&[1]),
                k: 10,
            },
            Query::TopK { size: 2, k: 2 },
        ];
        for q in &queries {
            let cold = cached.execute(q);
            let warm = cached.execute(q);
            let none = uncached.execute(q);
            assert_eq!(cold, warm, "{q:?}");
            assert_eq!(cold, none, "{q:?}");
        }
        let cs = cached.cache_stats();
        assert_eq!(cs.hits, queries.len() as u64);
        assert_eq!(cs.misses, queries.len() as u64);
        assert_eq!(uncached.cache_stats().hits, 0);
    }

    #[test]
    fn reload_bumps_generation_and_invalidates() {
        let store = Store::with_dataset(&dataset(), DEFAULT_CACHE_ENTRIES);
        let q = Query::Support {
            itemset: iset(&[4]),
        };
        assert_eq!(store.execute(&q), Response::Support(None));

        let mut bigger = dataset();
        bigger.frequent.insert(iset(&[4]), 7);
        let generation = store.load(&bigger);
        assert_eq!(generation, 2);
        assert_eq!(store.snapshot().generation(), 2);
        assert_eq!(store.execute(&q), Response::Support(Some(7)));
    }

    #[test]
    fn reload_counter_tracks_hot_swaps_only() {
        let store = Store::with_dataset(&dataset(), DEFAULT_CACHE_ENTRIES);
        assert_eq!(store.reloads(), 0, "the initial load is not a reload");
        let generation = store.reload(&dataset());
        assert_eq!(generation, 2);
        assert_eq!(store.reloads(), 1);
        store.load(&dataset()); // plain load does not count
        assert_eq!(store.reloads(), 1);
        assert_eq!(store.serve_stats(None).reloads, 1);
    }

    #[test]
    fn old_snapshot_survives_reload() {
        let store = Store::with_dataset(&dataset(), DEFAULT_CACHE_ENTRIES);
        let old = store.snapshot();
        store.load(&Dataset::default());
        assert_eq!(store.snapshot().index().num_itemsets(), 0);
        // The pre-reload reader still sees the full old generation.
        assert_eq!(old.index().num_itemsets(), 7);
        assert_eq!(old.generation(), 1);
    }

    /// Reload race: readers hammer the (cached) store while another
    /// thread keeps swapping between two generations whose supports are
    /// disjoint ranges. Every answer — cache hit or miss, one itemset or
    /// the whole index — must come from *exactly one* generation: all
    /// supports below 100, or all at least 100, never a mix and never a
    /// stale generation resurrected through the LRU after a reload.
    #[test]
    fn reload_race_serves_exactly_one_generation() {
        use std::sync::atomic::AtomicBool;

        let low = dataset(); // supports 3..=10
        let mut high = dataset(); // same itemsets, supports +100
        high.frequent = low
            .frequent
            .iter()
            .map(|(itemset, support)| (itemset.clone(), support + 100))
            .collect();
        high.rules = assoc_rules::generate(&high.frequent, 0.0);

        // A small cache keeps eviction in play.
        let store = Arc::new(Store::with_dataset(&low, 8));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let all = Query::Supersets {
                        of: Itemset::empty(),
                        limit: 100,
                    };
                    let one = Query::Support {
                        itemset: iset(&[1, 2]),
                    };
                    while !stop.load(Ordering::Relaxed) {
                        match store.execute(&all) {
                            Response::Itemsets(v) => {
                                assert_eq!(v.len(), 7, "whole table in every generation");
                                let highs = v.iter().filter(|c| c.support >= 100).count();
                                assert!(
                                    highs == 0 || highs == v.len(),
                                    "mixed-generation answer: {v:?}"
                                );
                            }
                            other => panic!("{other:?}"),
                        }
                        match store.execute(&one) {
                            Response::Support(Some(s)) => {
                                assert!(s == 5 || s == 105, "stale or torn support {s}")
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            store.load(&high);
            store.load(&low);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // After the dust settles the final generation (low) answers alone.
        assert_eq!(
            store.execute(&Query::Support {
                itemset: iset(&[1, 2])
            }),
            Response::Support(Some(5))
        );
    }

    #[test]
    fn limits_are_clamped_and_zero_means_empty() {
        let store = Store::with_dataset(&dataset(), DEFAULT_CACHE_ENTRIES);
        match store.execute(&Query::Supersets {
            of: Itemset::empty(),
            limit: 0,
        }) {
            Response::Itemsets(v) => assert!(v.is_empty()),
            other => panic!("{other:?}"),
        }
        match store.execute(&Query::Supersets {
            of: Itemset::empty(),
            limit: u32::MAX,
        }) {
            Response::Itemsets(v) => assert_eq!(v.len(), 7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_report_counts() {
        let store = Store::with_dataset(&dataset(), DEFAULT_CACHE_ENTRIES);
        let stats = store.serve_stats(None);
        assert_eq!(stats.itemsets, 7);
        assert_eq!(stats.rules, dataset().rules.len() as u64);
        // Root plus one node per itemset: every prefix is itself stored.
        assert_eq!(stats.trie_nodes, 8);
        assert_eq!(stats.num_transactions, 12);
        let json = stats.to_json();
        assert!(json.contains("\"itemsets\":7"), "{json}");
        match store.execute(&Query::Stats) {
            Response::StatsJson(j) => assert!(j.contains("\"cache\"")),
            other => panic!("{other:?}"),
        }
    }
}
