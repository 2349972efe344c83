//! Content-addressed solution cache with LRU eviction.
//!
//! A solution is addressed by the *content* of the job that produced it:
//! the canonical byte encoding of (engine, k, tolerance, starts, seed,
//! refinement regime, vertex weights, nets, fixities) — everything that
//! determines the deterministic output. Two structurally identical
//! requests therefore share one entry no matter how their JSON was
//! formatted, while any change to the instance or configuration misses.
//!
//! The *refinement regime* bit exists because the k-way engines' answer is
//! no longer invariant across every thread count: a single-start job with
//! `threads >= 2` runs the synchronous-round parallel refinement, which is
//! a different (equally deterministic) algorithm than the sequential pass
//! at `threads <= 1`. The exact thread count stays out of the key — within
//! a regime the answer is identical for any budget — but the regime itself
//! must match.
//!
//! Lookups compare the full key bytes, not just the 64-bit hash, so a
//! hash collision degrades to a miss instead of returning a wrong
//! solution. Deadline-expired (best-so-far) results are never inserted —
//! caching them would make a later identical request with a generous
//! deadline return the truncated answer.

use std::collections::HashMap;

use vlsi_hypergraph::{FixedVertices, Fixity, Hypergraph, Objective, PartCapacities, PartId};

/// The canonical byte encoding of a job's solution-determining content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    bytes: Vec<u8>,
    hash: u64,
}

impl CacheKey {
    /// The 64-bit FNV-1a hash of the key bytes.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The **solution id** of this key: a stable, content-derived handle
    /// (`"s"` + 16 hex digits of the hash) returned to clients in job
    /// responses and accepted back in `warm_start.solution_id`. Because it
    /// is derived from the content hash — not from an insertion counter —
    /// the id a client observes is independent of worker count and
    /// completion order.
    pub fn solution_id(&self) -> String {
        format!("s{:016x}", self.hash)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
/// groups first, the high bit set on every byte but the last. Varints are
/// self-delimiting, so a sequence of them decodes unambiguously and the
/// key stays injective while small ids and weights take one byte.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Builds the content address of a job. `parallel_refine` is the
/// refinement-regime bit: `true` when the job hands a thread budget ≥ 2 to
/// the engine's internal phases (single-start jobs), selecting the
/// synchronous-round parallel k-way refinement. `vcycles` and `ensemble`
/// are the quality-phase knobs: a plain multistart solution must never
/// answer a V-cycle/ensemble request (they produce different — better —
/// partitions), so both are part of the address.
///
/// The encoding is length-prefixed throughout, so distinct structures can
/// never alias (e.g. moving a weight from one vertex to the next changes
/// the bytes even though the concatenation is identical). Every integer is
/// an LEB128 varint; the tolerance is its 8-byte IEEE bit pattern.
#[allow(clippy::too_many_arguments)]
pub fn cache_key(
    engine: &str,
    k: usize,
    tolerance: f64,
    starts: usize,
    seed: u64,
    parallel_refine: bool,
    vcycles: usize,
    ensemble: bool,
    objective: Objective,
    part_capacities: Option<&PartCapacities>,
    hg: &Hypergraph,
    fixed: &FixedVertices,
) -> CacheKey {
    let mut bytes = Vec::with_capacity(64 + 2 * (hg.num_vertices() + hg.num_pins()));
    push_varint(&mut bytes, engine.len() as u64);
    bytes.extend_from_slice(engine.as_bytes());
    push_varint(&mut bytes, k as u64);
    bytes.extend_from_slice(&tolerance.to_bits().to_le_bytes());
    push_varint(&mut bytes, starts as u64);
    push_varint(&mut bytes, seed);
    push_varint(&mut bytes, parallel_refine as u64);
    push_varint(&mut bytes, vcycles as u64);
    push_varint(&mut bytes, ensemble as u64);
    push_varint(
        &mut bytes,
        match objective {
            Objective::Cut => 0,
            Objective::KMinus1 => 1,
            Objective::Soed => 2,
        },
    );
    match part_capacities {
        None => push_varint(&mut bytes, 0),
        Some(caps) => {
            push_varint(&mut bytes, 1);
            push_varint(&mut bytes, caps.num_parts() as u64);
            push_varint(&mut bytes, caps.num_resources() as u64);
            for &c in caps.as_flat() {
                push_varint(&mut bytes, c);
            }
        }
    }

    push_varint(&mut bytes, hg.num_vertices() as u64);
    push_varint(&mut bytes, hg.num_resources() as u64);
    for v in hg.vertices() {
        for &w in hg.vertex_weights(v) {
            push_varint(&mut bytes, w);
        }
    }
    push_varint(&mut bytes, hg.num_nets() as u64);
    for n in hg.nets() {
        push_varint(&mut bytes, hg.net_weight(n));
        push_varint(&mut bytes, hg.net_size(n) as u64);
        for &p in hg.net_pins(n) {
            push_varint(&mut bytes, p.index() as u64);
        }
    }

    push_varint(&mut bytes, fixed.len() as u64);
    for fixity in fixed.as_slice() {
        match fixity {
            Fixity::Free => push_varint(&mut bytes, 0),
            Fixity::Fixed(p) => {
                push_varint(&mut bytes, 1);
                push_varint(&mut bytes, p.index() as u64);
            }
            Fixity::FixedAny(set) => {
                push_varint(&mut bytes, 2);
                let mut mask = 0u64;
                for p in set.iter() {
                    mask |= 1 << p.index();
                }
                push_varint(&mut bytes, mask);
            }
        }
    }

    let hash = fnv1a(&bytes);
    CacheKey { bytes, hash }
}

/// A cached solution.
#[derive(Debug, Clone)]
struct Entry {
    key_bytes: Vec<u8>,
    parts: Vec<PartId>,
    cut: u64,
    last_used: u64,
}

/// Hit/miss/eviction counters for a [`SolutionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a solution.
    pub hits: u64,
    /// Lookups that found nothing (including hash collisions).
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// An LRU-bounded map from content address to solution.
///
/// Not internally synchronised — the server wraps it in a `Mutex`.
#[derive(Debug)]
pub struct SolutionCache {
    map: HashMap<u64, Vec<Entry>>,
    capacity: usize,
    len: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SolutionCache {
    /// A cache holding at most `capacity` solutions (min 1).
    pub fn new(capacity: usize) -> Self {
        SolutionCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            len: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<(Vec<PartId>, u64)> {
        self.tick += 1;
        let tick = self.tick;
        let found = self.map.get_mut(&key.hash).and_then(|bucket| {
            bucket
                .iter_mut()
                .find(|e| e.key_bytes == key.bytes)
                .map(|e| {
                    e.last_used = tick;
                    (e.parts.clone(), e.cut)
                })
        });
        match &found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Looks up a solution by its content-derived id (see
    /// [`CacheKey::solution_id`]), refreshing recency on a hit. Used by
    /// the warm-start path; `None` (an evicted or never-seen id) makes the
    /// server fall back to a cold run with a `warm:"miss"` note.
    ///
    /// In the vanishingly rare case of two resident keys sharing a 64-bit
    /// hash, the first entry in the bucket answers — the warm-start path
    /// only needs *a* plausible seed, and it re-legalizes and re-validates
    /// whatever it gets.
    pub fn get_by_id(&mut self, id: &str) -> Option<(Vec<PartId>, u64)> {
        let hash = id
            .strip_prefix('s')
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        self.tick += 1;
        let tick = self.tick;
        let found = hash
            .and_then(|h| self.map.get_mut(&h))
            .and_then(|bucket| bucket.first_mut())
            .map(|e| {
                e.last_used = tick;
                (e.parts.clone(), e.cut)
            });
        match &found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Inserts (or refreshes) a solution, evicting the least-recently-used
    /// entry when the capacity bound is exceeded.
    pub fn insert(&mut self, key: CacheKey, parts: Vec<PartId>, cut: u64) {
        self.tick += 1;
        let bucket = self.map.entry(key.hash).or_default();
        if let Some(e) = bucket.iter_mut().find(|e| e.key_bytes == key.bytes) {
            e.parts = parts;
            e.cut = cut;
            e.last_used = self.tick;
            return;
        }
        let mut key_bytes = key.bytes;
        key_bytes.shrink_to_fit();
        bucket.push(Entry {
            key_bytes,
            parts,
            cut,
            last_used: self.tick,
        });
        self.len += 1;
        if self.len > self.capacity {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        // O(entries) scan — the cache is small (hundreds of solutions) and
        // eviction is rare next to a partitioning run, so a recency scan
        // beats maintaining an intrusive list.
        let Some((&victim_hash, oldest_in_bucket)) = self
            .map
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(h, b)| {
                let idx = b
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("bucket non-empty");
                (h, idx)
            })
            .min_by_key(|&(h, i)| self.map[h][i].last_used)
        else {
            return;
        };
        let bucket = self.map.get_mut(&victim_hash).expect("victim exists");
        bucket.swap_remove(oldest_in_bucket);
        if bucket.is_empty() {
            self.map.remove(&victim_hash);
        }
        self.len -= 1;
        self.evictions += 1;
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_hypergraph::HypergraphBuilder;

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
        for w in v.windows(2) {
            b.add_net(1, [w[0], w[1]]).unwrap();
        }
        b.build().unwrap()
    }

    fn key_of(hg: &Hypergraph, fixed: &FixedVertices, seed: u64) -> CacheKey {
        cache_key(
            "ml",
            2,
            0.1,
            4,
            seed,
            false,
            0,
            false,
            Objective::Cut,
            None,
            hg,
            fixed,
        )
    }

    #[test]
    fn identical_content_shares_an_address() {
        let hg = chain(6);
        let fx = FixedVertices::all_free(6);
        assert_eq!(key_of(&hg, &fx, 7), key_of(&hg, &fx, 7));
    }

    #[test]
    fn any_config_change_misses() {
        let hg = chain(6);
        let fx = FixedVertices::all_free(6);
        let base = key_of(&hg, &fx, 7);
        assert_ne!(base, key_of(&hg, &fx, 8), "seed is part of the address");
        #[allow(clippy::type_complexity)]
        let variants: &[(&str, &str, f64, bool, usize, bool, Objective)] = &[
            ("engine", "fm", 0.1, false, 0, false, Objective::Cut),
            ("tolerance", "ml", 0.2, false, 0, false, Objective::Cut),
            (
                "refinement regime",
                "ml",
                0.1,
                true,
                0,
                false,
                Objective::Cut,
            ),
            ("vcycles", "ml", 0.1, false, 2, false, Objective::Cut),
            ("ensemble", "ml", 0.1, false, 0, true, Objective::Cut),
            ("objective", "ml", 0.1, false, 0, false, Objective::KMinus1),
        ];
        for &(what, engine, tol, par, vc, ens, obj) in variants {
            assert_ne!(
                base,
                cache_key(engine, 2, tol, 4, 7, par, vc, ens, obj, None, &hg, &fx),
                "{what} is part of the address"
            );
        }
        let caps = PartCapacities::uniform(2, &[10]);
        assert_ne!(
            base,
            cache_key(
                "ml",
                2,
                0.1,
                4,
                7,
                false,
                0,
                false,
                Objective::Cut,
                Some(&caps),
                &hg,
                &fx
            ),
            "capacity vectors are part of the address"
        );
        let mut fixed = FixedVertices::all_free(6);
        fixed.fix(
            vlsi_hypergraph::VertexId::from_index(0),
            PartId::from_index(1),
        );
        assert_ne!(
            base,
            key_of(&hg, &fixed, 7),
            "fixities are part of the address"
        );
        assert_ne!(base, key_of(&chain(7), &FixedVertices::all_free(7), 7));
    }

    /// A hypergraph over `weights.len()` vertices with the given nets.
    fn build(weights: &[u64], nets: &[&[usize]]) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = weights.iter().map(|&w| b.add_vertex(w)).collect();
        for pins in nets {
            b.add_net(1, pins.iter().map(|&p| v[p])).unwrap();
        }
        b.build().unwrap()
    }

    fn bytes_of(hg: &Hypergraph) -> Vec<u8> {
        key_of(hg, &FixedVertices::all_free(hg.num_vertices()), 7).bytes
    }

    #[test]
    fn varints_are_leb128() {
        let cases: &[(u64, &[u8])] = &[
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (
                u64::MAX,
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
            ),
        ];
        for &(v, want) in cases {
            let mut out = Vec::new();
            push_varint(&mut out, v);
            assert_eq!(out, want, "{v}");
        }
    }

    #[test]
    fn weight_moved_to_a_neighbour_changes_the_key() {
        let a = build(&[2, 1, 1, 1], &[&[0, 1], &[2, 3]]);
        let b = build(&[1, 2, 1, 1], &[&[0, 1], &[2, 3]]);
        assert_ne!(bytes_of(&a), bytes_of(&b));
    }

    #[test]
    fn a_large_pin_id_never_reads_as_two_small_ones() {
        // 128 encodes as [0x80, 0x01]; the net {5, 0, 1} has the same pin
        // count in bytes, but the high bit ties 0x80 to its successor.
        let weights = [1; 130];
        let a = build(&weights, &[&[5, 128]]);
        let b = build(&weights, &[&[5, 0, 1]]);
        assert_ne!(bytes_of(&a), bytes_of(&b));
    }

    #[test]
    fn a_shifted_net_boundary_changes_the_key() {
        let a = build(&[1; 5], &[&[0, 1, 2], &[3, 4]]);
        let b = build(&[1; 5], &[&[0, 1], &[2, 3, 4]]);
        assert_ne!(bytes_of(&a), bytes_of(&b));
    }

    #[test]
    fn hit_miss_counters_and_round_trip() {
        let hg = chain(4);
        let fx = FixedVertices::all_free(4);
        let mut cache = SolutionCache::new(8);
        let key = key_of(&hg, &fx, 0);
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), vec![PartId::from_index(0); 4], 3);
        let (parts, cut) = cache.get(&key).expect("hit after insert");
        assert_eq!(cut, 3);
        assert_eq!(parts.len(), 4);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn solution_ids_round_trip_and_miss_after_eviction() {
        let hg = chain(4);
        let fx = FixedVertices::all_free(4);
        let mut cache = SolutionCache::new(1);
        let k0 = key_of(&hg, &fx, 0);
        let id0 = k0.solution_id();
        assert!(id0.starts_with('s') && id0.len() == 17, "{id0}");
        assert_eq!(id0, key_of(&hg, &fx, 0).solution_id(), "content-derived");
        cache.insert(k0.clone(), vec![PartId::from_index(1); 4], 2);
        let (parts, cut) = cache.get_by_id(&id0).expect("hit by id");
        assert_eq!((parts.len(), cut), (4, 2));
        // Capacity 1: inserting a second solution evicts the first, and
        // its id now misses instead of erroring.
        cache.insert(key_of(&hg, &fx, 1), vec![PartId::from_index(0); 4], 3);
        assert!(cache.get_by_id(&id0).is_none(), "evicted id misses");
        assert!(cache.get_by_id("not-an-id").is_none());
        assert!(cache.get_by_id("sffffffffffffffff").is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let hg = chain(4);
        let fx = FixedVertices::all_free(4);
        let mut cache = SolutionCache::new(2);
        let k0 = key_of(&hg, &fx, 0);
        let k1 = key_of(&hg, &fx, 1);
        let k2 = key_of(&hg, &fx, 2);
        cache.insert(k0.clone(), vec![PartId::from_index(0); 4], 0);
        cache.insert(k1.clone(), vec![PartId::from_index(0); 4], 1);
        cache.get(&k0); // refresh k0 — k1 becomes coldest
        cache.insert(k2.clone(), vec![PartId::from_index(0); 4], 2);
        assert!(cache.get(&k0).is_some(), "recently used entry survives");
        assert!(cache.get(&k1).is_none(), "coldest entry was evicted");
        assert!(cache.get(&k2).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }
}
